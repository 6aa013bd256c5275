"""Shard routing: partition a fleet's boards across scorers.

The shard router answers one question deterministically: *which scorer
scores which board*.  Boards are assigned round-robin by member index —
board ``i`` belongs to shard ``i % n_shards`` — which balances shard
sizes to within one board and, crucially, is a pure function of
``(member order, n_shards)``, so every component (ingestion, supervisor,
crash recovery, the offline trace replay) derives the same routing
without coordination.

Each shard wraps one :class:`~repro.detect.fleet.FleetScorer` over its
subset of boards, sharing the fleet's single fitted detector.  Because
batched scoring is bitwise-equal to per-board scoring (the PR 5
equivalence gate) and every per-board quantity in the scorer — alarm
persistence, quarantine streaks, sequential detector state — evolves
independently of the other boards, a shard's boards evolve *exactly* as
they would inside one whole-fleet scorer.  That is the byte-identity
guarantee the soak test gates: shard-local histories concatenate to the
synchronous single-scorer run.

Shards follow the mission phase themselves (threshold tightening is a
pure function of the timeline and the tick time), and expose
:meth:`ShardScorer.snapshot` / :meth:`ShardScorer.restore` so a lost
scorer can be rebuilt mid-run without losing quarantine state.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.core.sel.fleet import DEFAULT_PHASE_THRESHOLD_SCALES
from repro.detect.base import AnomalyDetector
from repro.detect.fleet import FleetConfig, FleetScorer
from repro.errors import ConfigError
from repro.radiation.schedule import EnvironmentTimeline, MissionPhase


def shard_boards(board_ids: list[str], n_shards: int) -> list[list[str]]:
    """Round-robin partition: board ``i`` -> shard ``i % n_shards``.

    Deterministic in (order, n_shards); every shard gets within one
    board of every other.  ``n_shards`` is clamped to the fleet size so
    no shard is ever empty.
    """
    if n_shards < 1:
        raise ConfigError(f"need at least one shard, got {n_shards}")
    if not board_ids:
        raise ConfigError("cannot shard an empty fleet")
    n_shards = min(n_shards, len(board_ids))
    shards: list[list[str]] = [[] for _ in range(n_shards)]
    for i, board_id in enumerate(board_ids):
        shards[i % n_shards].append(board_id)
    return shards


@dataclass(frozen=True)
class ShardStepResult:
    """One shard's decision for one tick (picklable, scalar-only lists).

    Attributes:
        shard: shard index.
        tick: logical tick index.
        t: simulated tick time.
        n_boards: boards routed to this shard.
        n_scored: boards actually scored this tick.
        n_anomalous: boards past threshold this tick.
        alarms: ids of boards whose persistent alarm fired.
        quarantined: ids newly quarantined this tick.
        released: ids released from quarantine this tick.
        max_score: largest finite score (0.0 if none).
        warming_up: inside the warmup window.
        phase: mission phase at ``t`` ("" without a timeline).
        threshold_scale: detector threshold scale in force.
    """

    shard: int
    tick: int
    t: float
    n_boards: int
    n_scored: int
    n_anomalous: int
    alarms: tuple[str, ...]
    quarantined: tuple[str, ...]
    released: tuple[str, ...]
    max_score: float
    warming_up: bool
    phase: str = ""
    threshold_scale: float = 1.0


@dataclass
class ShardState:
    """A shard scorer's full mutable state, exact and picklable.

    Captured with :meth:`ShardScorer.snapshot`, restored with
    :meth:`ShardScorer.restore`.  Holds deep copies of per-board
    bookkeeping, sequential detector stream state (numpy arrays pickle
    bit-exactly), the health rollup (integer counts + rational sums)
    and the warmup/phase scalars — everything needed to resume a shard
    byte-identically after a crash.
    """

    tick: int
    boards: list
    stream_state: object
    start_t: float | None
    threshold_scale: float
    health: object
    phase: str | None


class ShardScorer:
    """One shard: a FleetScorer over a board subset, phase-following.

    Attributes:
        index: shard index within the fleet.
        board_ids: boards routed here, in fleet member order.
        scorer: the wrapped batched scorer (shares the fleet detector).
    """

    def __init__(
        self,
        index: int,
        detector: AnomalyDetector,
        board_ids: list[str],
        config: FleetConfig = FleetConfig(),
        timeline: EnvironmentTimeline | None = None,
        threshold_scales: dict[MissionPhase, float] | None = None,
    ) -> None:
        self.index = index
        self.board_ids = list(board_ids)
        self.scorer = FleetScorer(detector, self.board_ids, config)
        self.timeline = timeline
        self.threshold_scales = dict(
            threshold_scales
            if threshold_scales is not None
            else DEFAULT_PHASE_THRESHOLD_SCALES
        )
        self._phase: MissionPhase | None = None
        self._tick = -1

    @property
    def n_boards(self) -> int:
        return len(self.board_ids)

    def _apply_phase(self, t: float) -> None:
        """Pure function of (timeline, t): every shard derives the same
        scale the synchronous service would have set fleet-wide."""
        phase = self.timeline.phase_at(t)
        if phase is self._phase:
            return
        self._phase = phase
        self.scorer.set_threshold_scale(
            self.threshold_scales.get(phase, 1.0)
        )

    def step_tick(
        self, tick: int, t: float, rows: np.ndarray
    ) -> ShardStepResult:
        """Score one tick's rows for this shard's boards."""
        if tick <= self._tick:
            raise ConfigError(
                f"shard {self.index}: tick {tick} after {self._tick}"
            )
        self._tick = tick
        if self.timeline is not None:
            self._apply_phase(t)
        step = self.scorer.step(t, rows)
        finite = step.scores[np.isfinite(step.scores)]
        return ShardStepResult(
            shard=self.index,
            tick=tick,
            t=t,
            n_boards=self.n_boards,
            n_scored=step.n_scored,
            n_anomalous=int(step.anomalous.sum()),
            alarms=tuple(self.board_ids[i] for i in step.alarms),
            quarantined=tuple(self.board_ids[i] for i in step.quarantined),
            released=tuple(self.board_ids[i] for i in step.released),
            max_score=float(finite.max()) if len(finite) else 0.0,
            warming_up=step.warming_up,
            phase=self._phase.value if self._phase is not None else "",
            threshold_scale=self.scorer.threshold_scale,
        )

    # -- crash recovery --------------------------------------------------------

    def snapshot(self) -> ShardState:
        """Deep-copy the full mutable state (the detector is shared and
        read-only during scoring, so it stays out of the snapshot)."""
        scorer = self.scorer
        return ShardState(
            tick=self._tick,
            boards=copy.deepcopy(scorer.boards),
            stream_state=copy.deepcopy(scorer._stream_state),
            start_t=scorer._start_t,
            threshold_scale=scorer._threshold_scale,
            health=copy.deepcopy(scorer.health),
            phase=self._phase.value if self._phase is not None else None,
        )

    def restore(self, state: ShardState) -> None:
        """Restore a snapshot (deep-copied again, so one ShardState can
        seed several restores without aliasing)."""
        scorer = self.scorer
        scorer.boards = copy.deepcopy(state.boards)
        scorer._stream_state = copy.deepcopy(state.stream_state)
        scorer._start_t = state.start_t
        scorer._threshold_scale = state.threshold_scale
        scorer.health = copy.deepcopy(state.health)
        self._phase = (
            MissionPhase(state.phase) if state.phase is not None else None
        )
        self._tick = state.tick
