"""Per-layer ledger: spans recorded around public functions, from outside.

During a traced repeat, :meth:`Ledger.installed` replaces each hooked
function or method with a wrapper that times the call and records a span
``(id, layer, start, end, parent, op)`` (``parent`` is the id of the
enclosing span, -1 at the top; ``op`` is ``r<repeat>/c<campaign>`` or
``r<repeat>/t<tick>``).  Leaving the ``with`` block puts every original
back.  Nothing under ``src/`` knows it is being traced.

A layer's self time is its busy time minus the time its wrapped children
ran; the self times of all layers sum to the wall time of the top-level
calls, which is the check :func:`layer_metrics` reports as
``trace.coverage``.
"""

from __future__ import annotations

import itertools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Callable

from benchmarks.suite.stats import nearest_rank

_MISSING = object()


@dataclass(frozen=True)
class Hook:
    """One wrapped callable.

    Attributes:
        layer: ledger layer the calls are charged to.
        owner: module or class holding the callable.
        attr: attribute name of the callable on ``owner``.
        leaf: a per-frame call that wraps nothing and is only ever made
            inside another hooked call: timed and counted by the cheapest
            wrapper, with no span kept.
        tick_of: extracts the tick from the call's arguments, for the op id.
        observe: ``observe(stats, args, result, t0)`` counts work done.
    """

    layer: str
    owner: Any
    attr: str
    leaf: bool = False
    tick_of: Callable | None = None
    observe: Callable | None = None


@dataclass
class LayerStats:
    """What one layer did during one traced repeat."""

    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    #: busy time split by the layer of the enclosing call ("" at the top).
    busy_under: dict = field(default_factory=lambda: defaultdict(float))
    #: work counters filled by the hook's ``observe``.
    counts: dict = field(default_factory=lambda: defaultdict(float))
    #: per-call samples (queue waits).
    samples: list = field(default_factory=list)


class Ledger:
    """Spans and per-layer totals of one traced repeat."""

    def __init__(self) -> None:
        #: op id of the current repeat/campaign, set by the workload.
        self.op = ""
        self.layers: dict[str, LayerStats] = defaultdict(LayerStats)
        #: ``(id, layer, start, end, parent id, op)``, in end order.
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._stack: list[list] = []
        self._flush: list[tuple[LayerStats, list]] = []

    def wrap(self, hook: Hook, fn: Callable) -> Callable:
        stack, spans, ids = self._stack, self.spans, self._ids
        stats = self.layers[hook.layer]
        layer, tick_of, observe = hook.layer, hook.tick_of, hook.observe
        ledger = self
        clock = time.perf_counter

        def leaf(*args):
            # Called once per frame: the span bookkeeping below would cost
            # more than the call itself.  Totals go to ``stats`` when the
            # ledger is summarised (``flush``).
            t0 = clock()
            result = fn(*args)
            duration = clock() - t0
            leaf_totals[0] += 1
            leaf_totals[1] += duration
            stack[-1][0] += duration
            return result

        leaf_totals = [0, 0.0]
        self._flush.append((stats, leaf_totals))

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            op = parent[2] if parent is not None else ledger.op
            if tick_of is not None:
                op = f"{ledger.op}/t{tick_of(args)}"
            # [child busy time, span id, op id, layer]
            entry = [0.0, next(ids), op, layer]
            stack.append(entry)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                stats.calls += 1
                stats.busy_s += duration
                stats.self_s += duration - entry[0]
                if parent is not None:
                    parent[0] += duration
                    stats.busy_under[parent[3]] += duration
                else:
                    stats.busy_under[""] += duration
                # A tuple of atoms: the garbage collector stops tracking
                # it after one pass, where a list would be rescanned by
                # every later full collection.
                spans.append((entry[1], layer, t0, t1,
                              parent[1] if parent is not None else -1, op))
            if observe is not None:
                observe(stats, args, result, t0)
            return result

        chosen = leaf if hook.leaf else wrapper
        chosen.__wrapped__ = fn
        return chosen

    @contextmanager
    def installed(self, hooks: list[Hook]):
        """Wrap every hook for the duration of the block, then restore."""
        saved: list[tuple[Any, str, Any]] = []
        try:
            for hook in hooks:
                original = vars(hook.owner).get(hook.attr, _MISSING)
                current = getattr(hook.owner, hook.attr)
                saved.append((hook.owner, hook.attr, original))
                setattr(hook.owner, hook.attr, self.wrap(hook, current))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                if original is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)
            for stats, (calls, busy_s) in self._flush:
                stats.calls += calls
                stats.busy_s += busy_s
                stats.self_s += busy_s
            self._flush.clear()

    def self_time_s(self) -> float:
        return sum(stats.self_s for stats in self.layers.values())


# -- hooks -------------------------------------------------------------------


def _count_instructions(stats, args, result, t0):
    stats.counts["instructions"] += result.instructions


def _count_benign(stats, args, result, t0):
    stats.counts["benign"] += result.outcome.value == "benign"


def _count_pruned(stats, args, result, t0):
    stats.counts["planned"] += len(result.trials)
    stats.counts["pruned"] += result.n_pruned


def _count_rows(stats, args, result, t0):
    stats.counts["rows"] += len(args[1])


def _queue_wait(stats, args, result, t0):
    frames = result[1]
    if frames:
        # All frames of one produce() call share its enqueue stamp.
        stats.samples.append(t0 - next(iter(frames.values())).enqueued_pc)


def campaign_hooks() -> list[Hook]:
    """Layers of the campaign engine (golden -> plan -> execute)."""
    import repro.analysis.masking as masking
    import repro.faults.campaign as campaign
    from repro.ir.interp import Interpreter

    return [
        Hook("faults.campaign", campaign, "run_campaign"),
        Hook("faults.campaign", campaign, "run_campaign_pruned"),
        Hook("faults.golden", campaign, "run_golden"),
        Hook("faults.plan", campaign, "prune_masked_trials",
             observe=_count_pruned),
        Hook("analysis.masking", masking, "analyze_masking"),
        Hook("faults.execute", campaign, "run_trial", observe=_count_benign),
        Hook("ir.interp", Interpreter, "run", observe=_count_instructions),
    ]


def service_hooks(detector_type: type) -> list[Hook]:
    """Layers of the mission-control service (ingest -> score -> decide)."""
    from repro.detect.fleet import FleetScorer
    from repro.service.backend import InProcessBackend
    from repro.service.ingest import ShardIngest
    from repro.service.metrics import DecisionLatencyTracker
    from repro.service.service import AsyncFleetService
    from repro.service.shard import ShardScorer
    from repro.service.supervisor import FleetSupervisor

    def tick(args):
        return args[1]

    return [
        Hook("service.loop", AsyncFleetService, "run"),
        Hook("service.ingest.produce", ShardIngest, "produce", tick_of=tick),
        Hook("service.ingest.assemble", ShardIngest, "assemble",
             tick_of=tick, observe=_queue_wait),
        Hook("service.shard", ShardScorer, "step_tick", tick_of=tick),
        Hook("detect.fleet", FleetScorer, "step"),
        Hook("detect.score", detector_type, "step_streams",
             observe=_count_rows),
        Hook("service.supervisor.apply", FleetSupervisor, "apply",
             tick_of=lambda args: args[1].tick),
        Hook("service.supervisor.checkpoint", FleetSupervisor, "checkpoint",
             tick_of=lambda args: args[2]),
        Hook("service.supervisor.checkpoint", InProcessBackend, "snapshot"),
        Hook("service.metrics.record", DecisionLatencyTracker, "record",
             leaf=True),
    ]


# -- per-layer metrics ---------------------------------------------------------

#: (metric, layer, field) of every time metric; each also gets ``.share``.
TIME_METRICS = (
    ("ir.interp.busy_s", "ir.interp", "busy_s"),
    ("faults.golden.busy_s", "faults.golden", "busy_s"),
    ("faults.golden.self_s", "faults.golden", "self_s"),
    ("analysis.masking.busy_s", "analysis.masking", "busy_s"),
    ("faults.plan.self_s", "faults.plan", "self_s"),
    ("faults.execute.self_s", "faults.execute", "self_s"),
    ("faults.campaign.self_s", "faults.campaign", "self_s"),
    ("service.ingest.produce_s", "service.ingest.produce", "self_s"),
    ("service.ingest.assemble_s", "service.ingest.assemble", "self_s"),
    ("detect.score.busy_s", "detect.score", "busy_s"),
    ("detect.fleet.self_s", "detect.fleet", "self_s"),
    ("service.shard.self_s", "service.shard", "self_s"),
    ("service.supervisor.apply_s", "service.supervisor.apply", "self_s"),
    ("service.supervisor.checkpoint_s", "service.supervisor.checkpoint",
     "self_s"),
    ("service.metrics.record_s", "service.metrics.record", "self_s"),
    ("service.loop.self_s", "service.loop", "self_s"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    ledgers: list[Ledger],
    walls_s: list[float],
    overhead: float,
    golden_hits: int,
    golden_lookups: int,
    shed_per_repeat: list[int],
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, from the traced repeats' ledgers.

    Counts and times are medians per traced repeat (raw host seconds);
    ``.share`` is the layer's total over the traced wall; rates and
    fractions are totals over totals.  A layer the workload never calls
    reads 0.
    """
    wall = sum(walls_s)

    def per_repeat(layer: str, name: str) -> list[float]:
        return [getattr(ledger.layers.get(layer, LayerStats()), name)
                for ledger in ledgers]

    def total(layer: str, name: str) -> float:
        return sum(per_repeat(layer, name))

    def count(layer: str, key: str) -> float:
        return sum(ledger.layers[layer].counts[key]
                   for ledger in ledgers if layer in ledger.layers)

    metrics: dict[str, tuple[float, str]] = {}
    for name, layer, field_name in TIME_METRICS:
        metrics[name] = (median(per_repeat(layer, field_name)), "s")
        metrics[name + ".share"] = (
            _ratio(total(layer, field_name), wall), "ratio"
        )
    for layer in ("ir.interp", "faults.golden", "analysis.masking"):
        metrics[f"{layer}.calls"] = (median(per_repeat(layer, "calls")),
                                     "count")
    metrics["ir.interp.minstr_per_s"] = (
        _ratio(count("ir.interp", "instructions"),
               total("ir.interp", "busy_s")) / 1e6, "Minstr/s",
    )
    metrics["perf.golden_cache.hit_ratio"] = (
        _ratio(golden_hits, golden_lookups), "ratio"
    )
    replay = [ledger.layers["ir.interp"].busy_under["faults.plan"]
              if "ir.interp" in ledger.layers else 0.0 for ledger in ledgers]
    metrics["faults.plan.replay_s"] = (median(replay), "s")
    metrics["faults.plan.replay_s.share"] = (_ratio(sum(replay), wall),
                                             "ratio")
    metrics["faults.plan.prune_rate"] = (
        _ratio(count("faults.plan", "pruned"),
               count("faults.plan", "planned")), "ratio",
    )
    metrics["faults.execute.trials"] = (
        median(per_repeat("faults.execute", "calls")), "count"
    )
    metrics["faults.execute.benign_frac"] = (
        _ratio(count("faults.execute", "benign"),
               total("faults.execute", "calls")), "ratio",
    )
    waits = [wait for ledger in ledgers
             for wait in ledger.layers.get(
                 "service.ingest.assemble", LayerStats()).samples]
    metrics["service.ingest.queue_wait_p50_ms"] = (
        nearest_rank(waits, 50) * 1e3, "ms"
    )
    metrics["service.ingest.shed"] = (median(shed_per_repeat), "count")
    metrics["detect.score.rows_per_s"] = (
        _ratio(count("detect.score", "rows"),
               total("detect.score", "busy_s")), "1/s",
    )
    metrics["trace.overhead"] = (overhead, "ratio")
    metrics["trace.coverage"] = (
        _ratio(sum(ledger.self_time_s() for ledger in ledgers), wall),
        "ratio",
    )
    return dict(sorted(metrics.items()))
