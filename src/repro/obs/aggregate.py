"""The one metrics model: exactly mergeable rollups of event streams.

The sharded mission-control service needs one property above all: **a
shard's aggregate must merge losslessly**.  If N workers each fold their
slice of the telemetry into a rollup, the merged rollups must equal —
exactly, not approximately — the rollup one process would have computed
over the whole stream.  Otherwise sharding changes the numbers and the
fleet dashboard can't be trusted.

Everything here is therefore a commutative monoid fold:

- counters are integers (addition is associative and commutative);
- histograms are fixed-bucket :class:`~repro.obs.metrics.Histogram`\\ s
  whose bucket counts are integers and whose sums are exact rationals
  (floats are dyadic rationals, so ``Fraction`` accumulates them without
  rounding — float addition in stream order would *not* commute);
- each event contributes independently of its neighbours (no cross-event
  state), so any partition of the stream — by shard, by worker, by time
  — folds to the same aggregate.

:class:`Rollup` is the one registry: ``FleetScorer.health``, the fleet
service's latency metrics, the export CLI's source and, through
:meth:`Rollup.write`, a :class:`~repro.obs.events.Tracer` sink.
:func:`aggregate_events` is the fold, :meth:`Rollup.merge` is the monoid
operation, and the hypothesis property test asserts
``merge(shards) == global`` for *random* partitions.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from math import inf

from repro.errors import ConfigError
from repro.obs.events import (
    DetectorDecision,
    Event,
    FleetDecision,
    GoldenCacheLookup,
    LadderAttemptEvent,
    RecoveryDone,
    TrialEnd,
)
from repro.obs.metrics import Histogram

# -- canonical bucket layouts --------------------------------------------------
#
# Fixed bucket bounds are part of the merge contract: two shards can only
# merge when they bucketized identically, so the canonical layouts live
# here, derived deterministically (pure arithmetic, no host state).


def log_bounds(
    lo: float, hi: float, per_decade: int = 3
) -> tuple[float, ...]:
    """Log-spaced bucket upper bounds covering ``[lo, hi]``.

    ``per_decade`` bounds per factor of 10, always including ``lo`` and
    reaching at least ``hi``.  Pure function of its arguments, so every
    shard derives bit-identical bounds.
    """
    if lo <= 0 or hi <= lo:
        raise ConfigError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
    if per_decade < 1:
        raise ConfigError(f"per_decade must be >= 1, got {per_decade}")
    bounds = []
    k = 0
    while True:
        edge = lo * 10.0 ** (k / per_decade)
        bounds.append(edge)
        if edge >= hi:
            break
        k += 1
    return tuple(bounds)


def linear_bounds(lo: float, hi: float, n: int) -> tuple[float, ...]:
    """``n`` evenly spaced bucket upper bounds from ``lo`` to ``hi``."""
    if n < 1:
        raise ConfigError(f"need at least one bucket, got {n}")
    if hi <= lo:
        raise ConfigError(f"need lo < hi, got lo={lo}, hi={hi}")
    step = (hi - lo) / n
    return tuple(lo + step * (i + 1) for i in range(n))


#: Recovery / decision latency buckets: 1 µs .. ~100 s, 3 per decade.
LATENCY_BOUNDS = log_bounds(1e-6, 100.0, per_decade=3)
#: Detector score buckets (normalized scores cluster near threshold 1).
SCORE_BOUNDS = linear_bounds(0.0, 8.0, 64)
#: Trial cycle-cost buckets: 10 .. 1e9 cycles.
CYCLE_BOUNDS = log_bounds(10.0, 1e9, per_decade=3)


# -- rollups -------------------------------------------------------------------


@dataclass
class Rollup:
    """One mergeable bundle of counters and fixed-bucket histograms.

    As a :class:`~repro.obs.events.Tracer` sink, :meth:`write` folds each
    event in independently of its stream position:

    - ``events.<kind>`` counter for every event (``events.checkpoint``,
      ``events.watchdog-fire`` and ``events.block`` included);
    - :class:`TrialEnd` → ``trials.<outcome>`` counters and the
      ``trial.cycles`` histogram;
    - :class:`LadderAttemptEvent` → ``ladder.attempts.<rung>`` counters
      and the ``recovery.attempt_latency_s`` histogram;
    - :class:`RecoveryDone` → ``recovery.recovered`` +
      ``recovery.rung.<rung>`` or ``recovery.failed`` counters, and the
      ``recovery.latency_s`` and ``recovery.wasted_cycles`` histograms
      over every recovery, failed ones included;
    - :class:`GoldenCacheLookup` → ``golden_cache.hits`` /
      ``golden_cache.misses``;
    - :class:`DetectorDecision` → ``detector.samples`` / ``detector.alarms``
      counters and the ``detector.score`` histogram;
    - :class:`FleetDecision` → ``fleet.ticks`` / ``.scored`` /
      ``.anomalous`` / ``.alarms`` / ``.quarantines`` / ``.releases``
      counters, per-board ``board.<id>.alarms`` / ``.quarantines`` /
      ``.releases`` counters, and the ``fleet.max_score`` histogram.
    """

    counters: dict[str, int] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)

    def inc(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def observe(self, name: str, value: float, bounds: tuple) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(bounds)
        hist.record(value)

    def write(self, event: Event, seq: int) -> None:
        """Fold one event in (the :class:`Tracer` sink protocol)."""
        self.inc(f"events.{event.kind}")
        if isinstance(event, TrialEnd):
            self.inc(f"trials.{event.outcome}")
            self.observe("trial.cycles", event.cycles, CYCLE_BOUNDS)
        elif isinstance(event, LadderAttemptEvent):
            self.inc(f"ladder.attempts.{event.rung}")
            self.observe(
                "recovery.attempt_latency_s", event.latency_s, LATENCY_BOUNDS
            )
        elif isinstance(event, RecoveryDone):
            if event.recovered:
                self.inc("recovery.recovered")
                self.inc(f"recovery.rung.{event.rung}")
            else:
                self.inc("recovery.failed")
            self.observe("recovery.latency_s", event.latency_s, LATENCY_BOUNDS)
            self.observe(
                "recovery.wasted_cycles", event.wasted_cycles, CYCLE_BOUNDS
            )
        elif isinstance(event, GoldenCacheLookup):
            self.inc(
                "golden_cache.hits" if event.hit else "golden_cache.misses"
            )
        elif isinstance(event, DetectorDecision):
            self.inc("detector.samples")
            if event.alarm:
                self.inc("detector.alarms")
            self.observe("detector.score", event.score, SCORE_BOUNDS)
        elif isinstance(event, FleetDecision):
            self.inc("fleet.ticks")
            self.inc("fleet.scored", event.n_scored)
            self.inc("fleet.anomalous", event.n_anomalous)
            alarm_ids = event.alarm_ids()
            self.inc("fleet.alarms", len(alarm_ids))
            for board_id in alarm_ids:
                self.inc(f"board.{board_id}.alarms")
            if event.quarantined:
                quarantined = event.quarantined.split(",")
                self.inc("fleet.quarantines", len(quarantined))
                for board_id in quarantined:
                    self.inc(f"board.{board_id}.quarantines")
            if event.released:
                released = event.released.split(",")
                self.inc("fleet.releases", len(released))
                for board_id in released:
                    self.inc(f"board.{board_id}.releases")
            if event.n_scored:
                self.observe("fleet.max_score", event.max_score, SCORE_BOUNDS)

    def merge(self, other: "Rollup") -> None:
        """Fold ``other`` in; exact for any shard partition."""
        for name, n in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + n
        for name, hist in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = self.histograms[name] = Histogram(hist.bounds)
            mine.merge(hist)

    def merge_key(self) -> tuple:
        """Canonical order-free state, for exact equality checks."""
        return (
            tuple(sorted(self.counters.items())),
            tuple(sorted(
                (name, h.merge_key()) for name, h in self.histograms.items()
            )),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rollup):
            return NotImplemented
        return self.merge_key() == other.merge_key()

    def snapshot(self) -> dict:
        """JSON-ready snapshot: sorted counters and histogram summaries."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "histograms": {
                name: h.summary()
                for name, h in sorted(self.histograms.items())
            },
        }


def aggregate_events(events) -> Rollup:
    """Fold ``events`` into a fresh rollup (the canonical fold)."""
    rollup = Rollup()
    for event in events:
        rollup.write(event, 0)
    return rollup


# -- fleet health --------------------------------------------------------------


@dataclass
class BoardHealth:
    """Per-board rollup rebuilt from a FleetDecision stream.

    ``ticks_scored`` counts the fleet's scoring ticks (outside warmup,
    some board scored) that fall outside the board's quarantine
    intervals [quarantine t, release t) — the denominator of the alarm
    rate the fleet report renders.
    """

    board_id: str
    alarms: int = 0
    quarantines: int = 0
    releases: int = 0
    ticks_scored: int = 0

    @property
    def alarm_rate(self) -> float:
        return self.alarms / self.ticks_scored if self.ticks_scored else 0.0


def fleet_board_health(decisions) -> dict[str, BoardHealth]:
    """Replay a FleetDecision stream into per-board health rollups.

    A tick is a tick *time*: the sharded service traces one decision
    per shard per tick, interleaved, so a time counts once however many
    decisions carry it, and quarantine intervals are matched by time,
    not stream order.  Any shard count gives the one-scorer table.
    """
    health: dict[str, BoardHealth] = {}
    edges: dict[str, tuple[list[float], list[float]]] = {}
    scoring: set[float] = set()

    def board(board_id: str) -> BoardHealth:
        state = health.get(board_id)
        if state is None:
            state = health[board_id] = BoardHealth(board_id=board_id)
            edges[board_id] = ([], [])
        return state

    for event in decisions:
        if not isinstance(event, FleetDecision):
            continue
        for board_id in filter(None, event.quarantined.split(",")):
            board(board_id).quarantines += 1
            edges[board_id][0].append(event.t)
        for board_id in filter(None, event.released.split(",")):
            board(board_id).releases += 1
            edges[board_id][1].append(event.t)
        for board_id in event.alarm_ids():
            board(board_id).alarms += 1
        if not event.warming_up and event.n_scored:
            scoring.add(event.t)
    times = sorted(scoring)
    for board_id, (starts, ends) in edges.items():
        quarantined = sum(
            bisect_left(times, end) - bisect_left(times, start)
            for start, end in zip(sorted(starts), sorted(ends) + [inf])
        )
        health[board_id].ticks_scored = len(times) - quarantined
    return health
