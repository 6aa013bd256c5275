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
service's latency metrics, each campaign segment of a trace index and,
through :meth:`Rollup.write`, a :class:`~repro.obs.events.Tracer` sink.
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
    - :class:`FleetDecision` → ``fleet.scored`` / ``.anomalous`` /
      ``.alarms`` / ``.quarantines`` / ``.releases`` counters and
      per-board ``board.<id>.alarms`` / ``.quarantines`` / ``.releases``
      counters: only entries additive over boards, like
      ``FleetScorer.health``, so one decision per shard per tick folds to
      the one-scorer figures.  Per-tick figures (``fleet.ticks``, the
      ``fleet.max_score`` histogram) come from :class:`FleetReplay`.
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
            alarm_ids = event.alarm_ids()
            self.inc("fleet.scored", event.n_scored)
            self.inc("fleet.anomalous", event.n_anomalous)
            self.inc("fleet.alarms", len(alarm_ids))
            for board_id in alarm_ids:
                self.inc(f"board.{board_id}.alarms")
            for kind, ids in (
                ("quarantines", event.quarantined_ids()),
                ("releases", event.released_ids()),
            ):
                if ids:
                    self.inc(f"fleet.{kind}", len(ids))
                for board_id in ids:
                    self.inc(f"board.{board_id}.{kind}")

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


# -- fleet replay --------------------------------------------------------------


@dataclass
class BoardHealth:
    """One board's figures from a :class:`FleetReplay`.

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


@dataclass
class FleetTick:
    """One tick time, over every decision that carries it."""

    warming_up: bool
    n_boards: int = 0
    #: Largest score of any board scored at this time (-inf: none was).
    max_score: float = -inf


class FleetReplay:
    """A FleetDecision stream replayed tick time by tick time.

    The sharded service traces one decision per shard per tick,
    interleaved, so a tick is a tick *time*: it counts once however many
    decisions carry it, its fleet size and max score span them all, and
    quarantine intervals are matched by time, not stream order.  Any
    shard count therefore replays to the one-scorer figures.

    Attributes:
        ticks: per tick time, in first-seen order.
        alarms / quarantines / releases: per board, the times of each,
            in stream order.
    """

    def __init__(self, decisions=()) -> None:
        self.ticks: dict[float, FleetTick] = {}
        self.alarms: dict[str, list[float]] = {}
        self.quarantines: dict[str, list[float]] = {}
        self.releases: dict[str, list[float]] = {}
        self._last: FleetTick | None = None
        for decision in decisions:
            self.add(decision)

    def add(self, event: FleetDecision) -> None:
        tick = self.ticks.get(event.t)
        if tick is None:
            tick = self.ticks[event.t] = FleetTick(event.warming_up)
        tick.n_boards += event.n_boards
        if event.n_scored:
            tick.max_score = max(tick.max_score, event.max_score)
        for times, ids in (
            (self.alarms, event.alarm_ids()),
            (self.quarantines, event.quarantined_ids()),
            (self.releases, event.released_ids()),
        ):
            for board_id in ids:
                times.setdefault(board_id, []).append(event.t)
        self._last = tick

    @property
    def n_boards(self) -> int:
        """Fleet size: the boards of the last decision's tick."""
        return self._last.n_boards if self._last is not None else 0

    @property
    def warmup_ticks(self) -> int:
        return sum(tick.warming_up for tick in self.ticks.values())

    def max_scores(self) -> list[float]:
        """Each tick's max score, over ticks where some board scored."""
        return [
            tick.max_score for tick in self.ticks.values()
            if tick.max_score > -inf
        ]

    def health(self) -> dict[str, BoardHealth]:
        """Per-board figures, in board-id order."""
        times = sorted(
            t for t, tick in self.ticks.items()
            if not tick.warming_up and tick.max_score > -inf
        )
        health = {}
        for board_id in sorted({*self.alarms, *self.quarantines,
                                *self.releases}):
            starts = self.quarantines.get(board_id, [])
            ends = self.releases.get(board_id, [])
            quarantined = sum(
                bisect_left(times, end) - bisect_left(times, start)
                for start, end in zip(sorted(starts), sorted(ends) + [inf])
            )
            health[board_id] = BoardHealth(
                board_id,
                alarms=len(self.alarms.get(board_id, ())),
                quarantines=len(starts),
                releases=len(ends),
                ticks_scored=len(times) - quarantined,
            )
        return health

    def rollup(self) -> Rollup:
        """The per-tick entries: the ``fleet.ticks`` counter and the
        ``fleet.max_score`` histogram of each tick's max score."""
        rollup = Rollup()
        if self.ticks:
            rollup.inc("fleet.ticks", len(self.ticks))
        for score in self.max_scores():
            rollup.observe("fleet.max_score", score, SCORE_BOUNDS)
        return rollup
