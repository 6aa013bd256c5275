"""The per-board fleet scorer, kept as the executable spec.

:class:`PerBoardFleetScorer` is :class:`repro.detect.fleet.FleetScorer`
as it was before its per-board state moved into arrays: one Python pass
over the boards per tick, one histogram record and one formatted counter
key per scored board.  The code below is that scorer verbatim (renamed);
``test_fleet_arrays.py`` runs it beside the array scorer on random
fleets and asserts they agree on every step, board and rollup.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.detect.base import AnomalyDetector, FittedState
from repro.detect.fleet import FleetConfig, FleetStep, _reset_if_stateful
from repro.errors import ConfigError, DetectorError
from repro.obs.aggregate import SCORE_BOUNDS, Rollup


@dataclass
class BoardScoringState:
    """Per-board alarm/quarantine bookkeeping inside the fleet scorer."""

    board_id: str
    hits: int = 0
    quarantined: bool = False
    bad_streak: int = 0
    good_streak: int = 0
    alarms: list[float] = field(default_factory=list)
    samples_scored: int = 0
    samples_dropped: int = 0



def _state_select(state, idx: np.ndarray):
    if state is None:
        return None
    if isinstance(state, np.ndarray):
        return state[idx]
    return [_state_select(s, idx) for s in state]


def _state_assign(state, idx: np.ndarray, sub) -> None:
    if state is None:
        return
    if isinstance(state, np.ndarray):
        state[idx] = sub
        return
    for child, new_child in zip(state, sub):
        _state_assign(child, idx, new_child)


class PerBoardFleetScorer:
    """Scores N telemetry streams through one shared fitted detector.

    Each board keeps its own alarm persistence counter, quarantine state
    and (for sequential detectors) scoring state, but the trained model —
    coefficients, covariance, thresholds — is shared, so a fleet costs
    one fitted detector plus O(n_boards) scalars.  Every board evolves
    exactly as it would under a dedicated single-board daemon; the fleet
    pipeline test pins that equivalence down.

    Attributes:
        detector: shared fitted detector.
        boards: per-board bookkeeping, index-aligned with score rows.
        health: mergeable rollup (:class:`repro.obs.aggregate.Rollup`) of
            per-board and fleet-wide scoring activity.  Every entry is
            additive over boards — counters per board, fixed-bucket score
            histogram — so scorers sharding one fleet's boards merge
            their health rollups into *exactly* the rollup one scorer
            over the whole fleet would hold (the sharded mission-control
            property).
    """

    def __init__(
        self,
        detector: AnomalyDetector,
        board_ids: list[str],
        config: FleetConfig = FleetConfig(),
    ) -> None:
        if detector.state is not FittedState.FITTED:
            raise DetectorError("fleet scorer needs a fitted detector")
        if not board_ids:
            raise ConfigError("fleet needs at least one board")
        if len(set(board_ids)) != len(board_ids):
            raise ConfigError("board ids must be unique")
        self.detector = detector
        self.config = config
        self.boards = [BoardScoringState(board_id=b) for b in board_ids]
        self.health = Rollup()
        self._stream_state = detector.make_stream_state(len(board_ids))
        self._start_t: float | None = None
        self._threshold_scale = 1.0

    @property
    def threshold_scale(self) -> float:
        """Scale on the shared detector threshold (< 1 tightens)."""
        return self._threshold_scale

    def set_threshold_scale(self, scale: float) -> None:
        """Tighten (< 1) or relax (> 1) alarming fleet-wide.

        The phase-adaptive degradation controller drives this on phase
        boundaries: an elevated-flux phase lowers the bar so small
        latch-ups alarm sooner, at the cost of more false positives —
        an acceptable trade while the SEL arrival rate is itself up.
        """
        if not np.isfinite(scale) or scale <= 0:
            raise ConfigError(f"threshold scale must be positive, got {scale}")
        self._threshold_scale = float(scale)

    @property
    def n_boards(self) -> int:
        return len(self.boards)

    def board(self, board_id: str) -> BoardScoringState:
        for state in self.boards:
            if state.board_id == board_id:
                return state
        raise ConfigError(f"unknown board id {board_id!r}")

    def _update_quarantine(
        self, finite: np.ndarray
    ) -> tuple[list[int], list[int]]:
        newly_quarantined: list[int] = []
        released: list[int] = []
        config = self.config
        for i, board in enumerate(self.boards):
            if not finite[i]:
                board.bad_streak += 1
                board.good_streak = 0
                board.hits = 0
                board.samples_dropped += 1
                if (
                    not board.quarantined
                    and board.bad_streak >= config.quarantine_after
                ):
                    board.quarantined = True
                    newly_quarantined.append(i)
            else:
                board.bad_streak = 0
                board.good_streak += 1
                if (
                    board.quarantined
                    and board.good_streak >= config.release_after
                ):
                    board.quarantined = False
                    released.append(i)
        return newly_quarantined, released

    def step(self, t: float, rows: np.ndarray) -> FleetStep:
        """Score one row per board at time ``t``.

        ``rows`` is an (n_boards, d) matrix; a row with any non-finite
        entry counts as a sensor dropout for that board.
        """
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if rows.shape[0] != self.n_boards:
            raise ConfigError(
                f"expected {self.n_boards} rows, got {rows.shape[0]}"
            )
        if self._start_t is None:
            self._start_t = t
        finite = np.isfinite(rows).all(axis=1)
        newly_quarantined, released = self._update_quarantine(finite)
        scores = np.full(self.n_boards, np.nan)
        anomalous = np.zeros(self.n_boards, dtype=bool)
        warming_up = (t - self._start_t) < self.config.warmup_s
        alarms: list[int] = []
        if not warming_up:
            scoreable = finite & np.array(
                [not b.quarantined for b in self.boards]
            )
            idx = np.nonzero(scoreable)[0]
            if len(idx):
                sub_state = _state_select(self._stream_state, idx)
                sub_scores, sub_state = self.detector.step_streams(
                    rows[idx], sub_state
                )
                _state_assign(self._stream_state, idx, sub_state)
                scores[idx] = sub_scores
                flags = sub_scores > self.detector.threshold * self._threshold_scale
                anomalous[idx] = flags
                for pos, i in enumerate(idx.tolist()):
                    board = self.boards[i]
                    board.samples_scored += 1
                    self.health.inc("fleet.scored")
                    self.health.inc(f"board.{board.board_id}.scored")
                    self.health.observe(
                        "fleet.score", float(sub_scores[pos]),
                        bounds=SCORE_BOUNDS,
                    )
                    if flags[pos]:
                        board.hits += 1
                        self.health.inc("fleet.anomalous")
                    else:
                        board.hits = 0
                    if board.hits >= self.config.consecutive_hits:
                        board.alarms.append(t)
                        board.hits = 0
                        alarms.append(i)
                        self.health.inc("fleet.alarms")
                        self.health.inc(f"board.{board.board_id}.alarms")
        for i in newly_quarantined:
            self.health.inc("fleet.quarantines")
            self.health.inc(f"board.{self.boards[i].board_id}.quarantines")
        for i in released:
            self.health.inc("fleet.releases")
            self.health.inc(f"board.{self.boards[i].board_id}.releases")
        self.health.inc("fleet.dropped", int((~finite).sum()))
        return FleetStep(
            t=t,
            scores=scores,
            anomalous=anomalous,
            alarms=alarms,
            quarantined=newly_quarantined,
            released=released,
            warming_up=warming_up,
        )

    def health_snapshot(self) -> dict:
        """JSON-friendly view of the health rollup."""
        return self.health.snapshot()

    def reset(self) -> None:
        """Clear all per-board state (new trace); keeps the detector."""
        self.boards = [
            BoardScoringState(board_id=b.board_id) for b in self.boards
        ]
        self.health = Rollup()
        self._stream_state = self.detector.make_stream_state(self.n_boards)
        self._start_t = None
        self._threshold_scale = 1.0
        _reset_if_stateful(self.detector)
