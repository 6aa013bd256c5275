"""Causal spans: hierarchical, clock-free, deterministic by construction.

A span is one *section* of mission-control work — a campaign, one trial
inside it, one escalation-ladder attempt inside that, a fleet scoring
tick, a commanded power cycle — emitted as a :class:`SpanStart` /
:class:`SpanEnd` pair through the ordinary :class:`~repro.obs.events.Tracer`
so spans ride the same JSONL stream and the same sinks as every other
event.

**Span IDs are derived, never drawn.**  An id is a 16-hex-character
BLAKE2b digest of ``(parent_id, name, index)`` — see :func:`span_id` —
seeded at the root from the campaign's identity and integer seed.  No
``time.time()``, no global counter, no RNG: the same campaign and seed
produce **byte-identical** trace streams in every run.  The same
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
========== ====================================================

Spans carry no wall-clock time: where the time goes is measured from
outside the library, by the repository benchmark's per-layer ledger
(``benchmarks/suite/run.py --trace 1``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from hashlib import blake2b
from typing import ClassVar

from repro.obs.events import Event, Tracer

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
        elapsed_s: always 0.0.  Kept so every span-traced stream
            (and every digest pinned over one) keeps its byte layout;
            spans are clock-free.
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
    so every run derives the identical id for the same logical span.
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
