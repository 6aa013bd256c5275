"""The execute stage: run planned trials inline or on the warm worker pool.

:func:`execute` takes the trials a planner did not prune, as
``(index, PlannedTrial)`` work items, and yields one ``(trial, record,
events)`` row per item, in order: the classified :class:`TrialResult`,
the supervisor's recovery record (None unsupervised) and the trial's
event batch when traced.  Both implementations run every item through
:meth:`TrialContext.run`:

* **inline** — a generator in the calling process, so a traced campaign
  holds one trial's events at a time;
* **warm pool** — contiguous chunks on a persistent process pool
  (:data:`repro.perf.pool.POOL_REGISTRY`) kept alive across campaigns of
  the same shape.  Each worker parses the printed IR once, runs the
  parsed module's own golden run and cross-checks it against the
  parent's, and keeps one :class:`TrialContext` (with its module's
  compiled code and golden snapshots); one chunk function returns
  pickled rows.  Chunk sizes follow the CPUs actually available.

Results are **byte-identical** however the trials ran: trial *i* is a
pure function of its work item (its child of the campaign seed, a
:class:`~repro.rng.TrialStream` or a forked Generator, made in the parent;
or a fault spec resolved by the planner), and ``pool.map`` keeps chunk
order.
That is also the worker-loss contract: when a worker dies mid-dispatch
(OOM kill, SIGKILL) the pool is discarded and the dispatch re-runs
inline with the same result.  An exception raised in a worker — a trial
bug, or a golden run that does not reproduce the parent's
(``FaultInjectionError``) — discards the pool and reaches the caller.

Trials run inline when ``workers`` is None or 1, for fewer than
:data:`MIN_PARALLEL_TRIALS` items, or when no pool can be created
(:func:`~repro.faults.campaign.run_plan` rejects ``workers`` < 1).
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from dataclasses import dataclass, replace

import repro.faults.campaign as engine
from repro.errors import FaultInjectionError, WorkerLost
from repro.faults.campaign import Campaign, PlannedTrial
from repro.faults.model import FaultTarget
from repro.faults.outcomes import TrialResult
from repro.faults.seu import RegisterFaultInjector
from repro.ir.costmodel import CostModel
from repro.ir.interp import ExecutionResult, GoldenSnapshots, module_code
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.obs.events import Event, InMemorySink, Tracer
from repro.perf.cache import cost_model_key
from repro.perf.pool import POOL_REGISTRY, WarmPool

#: Trials below this count never amortize pool startup; stay in-process.
MIN_PARALLEL_TRIALS = 8

#: One executed trial: result, recovery record, event batch.
Row = tuple[TrialResult, object, "list[Event] | None"]


def available_cpus() -> int:
    """CPUs actually usable by this process (affinity-aware).

    ``os.cpu_count()`` reports the host; a containerized or
    ``taskset``-restricted process may own far fewer.  Chunk sizing keys
    off this so a 16-worker request on a 2-CPU host is treated as 2-way
    parallelism, not 16.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass(frozen=True)
class WireCampaign:
    """A campaign serialized for worker processes.

    The module travels as printed IR text, with the golden value and
    instruction count, so each worker can check that its parsed module
    reproduces the parent's reference run — a print/parse infidelity
    must fail loudly, not skew the campaign.
    """

    ir_text: str
    module_name: str
    func_name: str
    args: tuple[int | float, ...]
    n_trials: int
    target: FaultTarget
    sdc_tolerance: float
    fuel: int
    cost_model: CostModel
    golden_value: int | float | None
    golden_instructions: int

    @classmethod
    def from_campaign(
        cls, campaign: Campaign, golden: ExecutionResult
    ) -> "WireCampaign":
        return cls(
            ir_text=print_module(campaign.module),
            module_name=campaign.module.name,
            func_name=campaign.func_name,
            args=tuple(campaign.args),
            n_trials=campaign.n_trials,
            target=campaign.target,
            sdc_tolerance=campaign.sdc_tolerance,
            fuel=campaign.fuel,
            cost_model=campaign.cost_model,
            golden_value=golden.value,
            golden_instructions=golden.instructions,
        )

    def to_campaign(self) -> Campaign:
        return Campaign(
            module=parse_module(self.ir_text, name=self.module_name),
            func_name=self.func_name,
            args=self.args,
            n_trials=self.n_trials,
            target=self.target,
            sdc_tolerance=self.sdc_tolerance,
            fuel=self.fuel,
            cost_model=self.cost_model,
        )


@dataclass
class TrialContext:
    """Everything a trial needs besides its work item.

    Built once per campaign inline, and once per worker on the pool;
    either way from its own campaign module's golden run, whose snapshot
    table holds that module's blocks.
    """

    campaign: Campaign
    golden: ExecutionResult
    trial_fuel: int
    supervisor: object | None  # repro.recover.supervisor.Supervisor
    snapshots: GoldenSnapshots | None
    #: the module's shared compiled blocks (``module_code``).
    code_cache: dict

    @classmethod
    def build(
        cls, campaign: Campaign, golden: ExecutionResult, supervisor_config
    ) -> "TrialContext":
        supervisor = None
        if supervisor_config is not None:
            from repro.recover.supervisor import Supervisor

            supervisor = Supervisor(campaign, golden, supervisor_config)
        return cls(
            campaign, golden, engine.trial_fuel_for(campaign, golden),
            supervisor, golden.snapshots,
            module_code(campaign.module, campaign.cost_model),
        )

    def run(
        self,
        index: int,
        planned: PlannedTrial,
        traced: bool,
        trace_blocks: bool,
        span_root: str,
    ) -> Row:
        """Execute one work item; events go to a private per-trial sink."""
        sink = InMemorySink() if traced else None
        tracer = None if sink is None else Tracer(sink)
        record = None
        if self.supervisor is not None:
            trial, record = self.supervisor.run_trial(
                planned.rng, tracer=tracer, trial_index=index,
                span_root=span_root,
            )
        else:
            trial = engine.run_trial(
                self.campaign, self.golden, self.trial_fuel, planned.rng,
                self.code_cache, tracer=tracer, trial_index=index,
                trace_blocks=trace_blocks, span_root=span_root,
                injector=(
                    None if planned.spec is None
                    else RegisterFaultInjector(planned.spec)
                ),
                snapshots=self.snapshots,
            )
        return trial, record, None if sink is None else sink.events


# -- worker side ---------------------------------------------------------------

#: The worker's warm context, or the exception its warm start raised.
_WORKER: TrialContext | Exception | None = None


def _init_worker(wire: WireCampaign, supervisor_config) -> None:
    """Pool initializer: parse the module once, cross-check its golden run.

    The parsed module's record starts empty, so its golden run executes
    and is compared with the parent's.

    A failure is kept and raised by the first chunk instead: a raising
    initializer kills its worker, and the pool would respawn it forever.
    """
    global _WORKER
    try:
        campaign = wire.to_campaign()
        golden = engine.run_golden(campaign)
        if (
            repr(golden.value) != repr(wire.golden_value)
            or golden.instructions != wire.golden_instructions
        ):
            raise FaultInjectionError(
                f"parallel warm start diverged for @{wire.func_name}: "
                f"worker golden (value={golden.value!r}, "
                f"instructions={golden.instructions}) != parent golden "
                f"(value={wire.golden_value!r}, "
                f"instructions={wire.golden_instructions}) — printed-IR "
                f"round-trip is not faithful for this module"
            )
        _WORKER = TrialContext.build(campaign, golden, supervisor_config)
    except Exception as exc:
        _WORKER = exc


def _run_chunk(payload: tuple) -> list[Row]:
    """The pool's one chunk function: run work items, return their rows."""
    items, traced, trace_blocks, span_root = payload
    context = _WORKER
    if isinstance(context, Exception):
        raise context
    assert context is not None, "worker used before initialization"
    return [
        context.run(index, planned, traced, trace_blocks, span_root)
        for index, planned in items
    ]


# -- parent side ---------------------------------------------------------------


def _chunks(items: list, workers: int) -> list[list]:
    """Contiguous chunks, ~4 per *effective* worker (the smaller of the
    requested count and the CPUs available): fewer, larger chunks on an
    oversubscribed small host instead of straggler-heavy slivers."""
    n = len(items)
    effective = max(1, min(workers, available_cpus()))
    size = max(1, -(-n // (effective * 4)))
    return [items[i:i + size] for i in range(0, n, size)]


def _get_pool(
    wire: WireCampaign, supervisor_config, workers: int
) -> WarmPool | None:
    """Fetch (or fork + warm-start) the persistent pool for this shape.

    The key is everything the worker warm-start depends on; ``n_trials``
    is normalized out, so a pool warmed for 60 trials serves a
    6000-trial campaign of the same shape unchanged.
    """
    wire = replace(wire, n_trials=0)
    key = (
        wire.ir_text, wire.module_name, wire.func_name, wire.args,
        wire.target.value, wire.sdc_tolerance, wire.fuel,
        cost_model_key(wire.cost_model), repr(supervisor_config), workers,
    )
    return POOL_REGISTRY.get(
        key, workers, _init_worker, (wire, supervisor_config)
    )


def execute(
    campaign: Campaign,
    golden: ExecutionResult,
    work: list[tuple[int, PlannedTrial]],
    workers: int | None = None,
    traced: bool = False,
    trace_blocks: bool = False,
    span_root: str = "",
    supervisor_config=None,
) -> Iterator[Row]:
    """Run ``work`` and yield one row per item, in order (see module doc)."""
    options = (traced, trace_blocks, span_root)
    if workers is not None and workers > 1 and len(work) >= MIN_PARALLEL_TRIALS:
        wire = WireCampaign.from_campaign(campaign, golden)
        pool = _get_pool(wire, supervisor_config, workers)
        if pool is not None:
            payloads = [(chunk, *options) for chunk in _chunks(work, workers)]
            # A broken pool must not stay registered, or every later
            # campaign of the same shape would hit it again.
            try:
                chunk_rows = pool.map(_run_chunk, payloads)
                return iter([row for rows in chunk_rows for row in rows])
            except WorkerLost:
                POOL_REGISTRY.discard(pool)  # re-run the dispatch inline
            except BaseException:
                POOL_REGISTRY.discard(pool)
                raise
    context = TrialContext.build(campaign, golden, supervisor_config)
    return (context.run(index, planned, *options) for index, planned in work)
