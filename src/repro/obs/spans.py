"""Causal spans: hierarchical, clock-free, deterministic by construction.

A span is one *section* of mission-control work — a campaign, one trial
inside it, one escalation-ladder attempt inside that, a fleet scoring
tick, a commanded power cycle — emitted as a :class:`SpanStart` /
:class:`SpanEnd` pair through the ordinary :class:`~repro.obs.events.Tracer`
so spans ride the same JSONL stream, the same sinks and the same
order-stable parallel merge as every other event.

**Span IDs are derived, never drawn.**  An id is a 16-hex-character
BLAKE2b digest of ``(parent_id, name, index)`` — see :func:`span_id` —
seeded at the root from the campaign's identity and integer seed.  No
``time.time()``, no global counter, no RNG: worker processes compute the
exact id the serial loop would have computed for the same trial, which
is what lets span-traced inline and pooled (any worker count) campaigns
produce **byte-identical** trace streams.  The same
derivation means a reader can *predict* ids: trial 7 of a campaign root
``r`` is always ``span_id(r, "trial", 7)``.

The span vocabulary (``name`` field) used by the engine:

========== ====================================================
name       one …
========== ====================================================
campaign   fault-injection campaign (root; children: trials)
trial      injected trial (children: ladder attempts)
attempt    escalation-ladder rung attempt
fleet      fleet-service run (root; children: ticks)
tick       fleet scoring tick (children: power cycles)
power-cycle commanded board reboot
stage:*    engine stage profile (fork/dispatch/merge/score)
========== ====================================================

``stage:*`` spans are the one deliberate exception to clock-freedom:
:class:`StageProfiler` measures wall-clock engine stages (pool fork,
chunk dispatch, result merge, fleet scoring) for the perf CLIs.  They
carry real elapsed seconds, so they are **never** emitted into a
campaign's deterministic trace — they land in a metrics registry
(:data:`~repro.obs.metrics.ENGINE_METRICS` by default) and, optionally,
a dedicated profiling tracer.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from hashlib import blake2b
from typing import ClassVar

from repro.errors import ConfigError
from repro.obs.events import Event, Tracer
from repro.obs.metrics import ENGINE_METRICS, MetricsRegistry

#: Hex characters in a span id (BLAKE2b digest_size=8).
SPAN_ID_BYTES = 8

#: ``parent`` value of a root span.
ROOT = ""


@dataclass(frozen=True)
class SpanStart(Event):
    """A span opened.

    Attributes:
        span: this span's derived id.
        parent: the enclosing span's id ("" for a root).
        name: span vocabulary word ("campaign", "trial", "attempt", ...).
        index: sibling index under the parent (the derivation input).
        detail: deterministic human label (program, rung, board id).
    """

    kind: ClassVar[str] = "span-start"

    span: str
    parent: str
    name: str
    index: int
    detail: str = ""


@dataclass(frozen=True)
class SpanEnd(Event):
    """A span closed.

    Attributes:
        span: the id opened by the matching :class:`SpanStart`.
        status: outcome tag ("ok", a trial outcome, "failed", ...).
        cycles: logical cost attributed to the span (0 when unknown).
        count: items the span covered (trials, attempts, boards).
        elapsed_s: wall-clock seconds — **only** ever non-zero on
            ``stage:*`` profiling spans, which live outside the
            deterministic trace; campaign spans keep it 0.0 so traced
            streams stay byte-reproducible.
    """

    kind: ClassVar[str] = "span-end"

    span: str
    status: str = "ok"
    cycles: int = 0
    count: int = 0
    elapsed_s: float = 0.0


def span_id(parent: str, name: str, index: int) -> str:
    """Deterministic id of the ``index``-th ``name`` span under ``parent``.

    Pure function of its inputs — no clock, no RNG, no process state —
    so every execution mode (inline or warm-pool worker) derives the
    identical id for the same logical span.
    """
    digest = blake2b(
        f"{parent}|{name}|{index}".encode(), digest_size=SPAN_ID_BYTES
    )
    return digest.hexdigest()


def campaign_root(
    program: str, func: str, seed: int | None, n_trials: int
) -> str:
    """Root span id of one campaign.

    Derived from the campaign identity plus the integer seed when one
    was given (a ``Generator`` seed contributes 0 — ids stay
    deterministic within the run, just not predictable across runs,
    exactly like the trial results themselves).
    """
    scope = f"campaign:{program}:@{func}:{n_trials}"
    return span_id(ROOT, scope, seed if isinstance(seed, int) else 0)


def fleet_root(n_boards: int, timeline_seed: int) -> str:
    """Root span id of one fleet-service run."""
    return span_id(ROOT, f"fleet:{n_boards}", timeline_seed)


class SpanScope:
    """Stack-shaped helper for emitting well-nested spans.

    Binds a tracer to a current parent id and hands out child scopes;
    each ``open``/``close`` pair emits one SpanStart/SpanEnd.  Purely a
    convenience — the engine's hot paths emit the events directly.
    """

    def __init__(self, tracer: Tracer, span: str = ROOT) -> None:
        self.tracer = tracer
        self.span = span
        #: Extra SpanEnd fields the body may set before the scope closes
        #: (e.g. ``scope.end_fields["status"] = outcome``).
        self.end_fields: dict = {}
        self._child_index = 0

    @contextmanager
    def span_ctx(self, name: str, detail: str = "", **end_fields):
        """Context manager: open a child span, yield its scope, close it."""
        index = self._child_index
        self._child_index += 1
        child = span_id(self.span, name, index)
        self.tracer.emit(SpanStart(
            span=child, parent=self.span, name=name, index=index,
            detail=detail,
        ))
        scope = SpanScope(self.tracer, child)
        try:
            yield scope
        except BaseException:
            self.tracer.emit(SpanEnd(span=child, status="failed"))
            raise
        self.tracer.emit(SpanEnd(span=child, **{**end_fields, **scope.end_fields}))


# -- engine-stage profiling ----------------------------------------------------


class StageProfiler:
    """Wall-clock profiling of engine stages, kept out of the trace.

    ``with profiler.stage("dispatch"):`` measures the block and records
    the elapsed seconds into the ``engine.stage.<name>_s`` histogram of
    ``registry`` (:data:`~repro.obs.metrics.ENGINE_METRICS` when not
    given) plus an ``engine.stage.<name>`` counter.  With a dedicated
    ``tracer`` it additionally emits a ``stage:<name>`` span pair whose
    :class:`SpanEnd` carries the measured ``elapsed_s`` — never attach
    the campaign tracer here: stage timings are host-dependent and would
    break traced byte-identity.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        root: str = ROOT,
    ) -> None:
        self.registry = registry if registry is not None else ENGINE_METRICS
        self.tracer = tracer
        self.root = root
        self._index = 0

    @contextmanager
    def stage(self, name: str):
        """Measure one engine stage (fork / dispatch / merge / score)."""
        if not name:
            raise ConfigError("stage name must be non-empty")
        index = self._index
        self._index += 1
        span = span_id(self.root, f"stage:{name}", index)
        if self.tracer is not None:
            self.tracer.emit(SpanStart(
                span=span, parent=self.root, name=f"stage:{name}",
                index=index,
            ))
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self.registry.counter(f"engine.stage.{name}").inc()
            self.registry.histogram(f"engine.stage.{name}_s").record(elapsed)
            if self.tracer is not None:
                self.tracer.emit(SpanEnd(span=span, elapsed_s=elapsed))


#: The profiler engine hot paths record through (metrics-only unless a
#: profiling tracer is attached via :func:`set_profiling_tracer`).
_DEFAULT_PROFILER = StageProfiler()
_ACTIVE_PROFILER = _DEFAULT_PROFILER


def set_profiling_tracer(tracer: Tracer | None) -> None:
    """Attach (or detach, with None) a tracer for engine-stage spans.

    The attached tracer receives ``stage:*`` span pairs carrying real
    wall-clock ``elapsed_s`` from every subsequent :func:`profile_stage`
    section.  It must be a *dedicated* profiling tracer — never the
    campaign tracer, whose stream is contractually clock-free and
    byte-reproducible.
    """
    global _ACTIVE_PROFILER
    if tracer is None:
        _ACTIVE_PROFILER = _DEFAULT_PROFILER
    else:
        _ACTIVE_PROFILER = StageProfiler(tracer=tracer)


def profile_stage(name: str):
    """Module-level convenience: one-shot stage section on ENGINE_METRICS.

    The engine's hot paths use this directly so call sites stay one
    line: ``with profile_stage("dispatch"): ...``.
    """
    return _ACTIVE_PROFILER.stage(name)
