"""Fleet-scale scoring: ensemble voting and multi-board multiplexing.

One ground-side service scores telemetry from a *fleet* of boards, not
one daemon per board.  Two pieces:

- :class:`EnsembleDetector` combines several detectors behind the
  standard :class:`~repro.detect.base.AnomalyDetector` interface.  Member
  scores live on wildly different scales (amperes above a ceiling,
  sigmas, chi-square distances), so each member is normalized against its
  own clean-score distribution such that its calibrated threshold maps to
  1.0; votes are then combined **weighted** (weighted mean of normalized
  scores, alarm above 1.0) or by **majority** (weighted fraction of
  members past their own threshold, alarm above 0.5).
- :class:`FleetScorer` multiplexes N boards through one shared fitted
  detector using the batched ``step_streams`` fast path, with per-board
  alarm persistence and per-board **quarantine** on sensor dropout
  (non-finite telemetry rows) so one failed sensor degrades one board's
  coverage instead of raising a fleet-wide alarm.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass, field

import numpy as np

from repro.detect.base import AnomalyDetector, FittedState
from repro.detect.evaluate import roc_auc
from repro.errors import ConfigError, DetectorError
from repro.obs.aggregate import SCORE_BOUNDS, Rollup
from repro.obs.metrics import Histogram

#: Recognized ensemble voting modes.
VOTE_MODES = ("weighted", "majority")


def _reset_if_stateful(detector: AnomalyDetector) -> None:
    reset = getattr(detector, "reset", None)
    if callable(reset):
        reset()


class EnsembleDetector(AnomalyDetector):
    """Votes several detectors into one anomaly score.

    Attributes:
        members: the member detectors (share training rows).
        vote: "weighted" or "majority".
        weights: per-member weights (normalized to sum to 1).
    """

    def __init__(
        self,
        members: list[AnomalyDetector],
        vote: str = "weighted",
        weights: list[float] | None = None,
    ) -> None:
        super().__init__()
        if not members:
            raise ConfigError("ensemble needs at least one member")
        if vote not in VOTE_MODES:
            raise ConfigError(f"unknown vote mode {vote!r}")
        if weights is None:
            weights = [1.0] * len(members)
        if len(weights) != len(members):
            raise ConfigError("one weight per member required")
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise ConfigError("weights must be non-negative with positive sum")
        total = float(sum(weights))
        self.members = list(members)
        self.vote = vote
        self.weights = [w / total for w in weights]
        self._centers = [0.0] * len(members)
        self._scales = [1.0] * len(members)

    @classmethod
    def from_fitted(
        cls,
        members: list[AnomalyDetector],
        clean_rows: np.ndarray,
        vote: str = "weighted",
        weights: list[float] | None = None,
    ) -> "EnsembleDetector":
        """Wrap already-fitted members; calibrates normalization only."""
        ensemble = cls(members, vote=vote, weights=weights)
        for member in members:
            if member.state is not FittedState.FITTED:
                raise DetectorError("from_fitted requires fitted members")
        ensemble._calibrate(
            np.atleast_2d(np.asarray(clean_rows, dtype=float))
        )
        ensemble.state = FittedState.FITTED
        return ensemble

    def _calibrate(self, rows: np.ndarray) -> None:
        """Per-member normalization: clean median -> 0, threshold -> 1."""
        for i, member in enumerate(self.members):
            scores = member.score_batch(rows)
            _reset_if_stateful(member)
            center = float(np.median(scores))
            span = member.threshold - center
            if span <= 0:
                # Threshold at/below the clean median (degenerate member):
                # fall back to a robust scale so scores stay finite.
                mad = float(np.median(np.abs(scores - center)))
                span = max(mad * 1.4826, 1e-9)
            self._centers[i] = center
            self._scales[i] = span

    def _fit(self, rows: np.ndarray) -> None:
        for member in self.members:
            member.fit(rows)
        self._calibrate(rows)

    def _normalized(self, index: int, raw: np.ndarray) -> np.ndarray:
        return (raw - self._centers[index]) / self._scales[index]

    def _combine(self, member_scores: list[np.ndarray]) -> np.ndarray:
        combined = np.zeros_like(member_scores[0], dtype=float)
        for i, raw in enumerate(member_scores):
            normalized = self._normalized(i, raw)
            if self.vote == "majority":
                combined += self.weights[i] * (normalized > 1.0)
            else:
                combined += self.weights[i] * normalized
        return combined

    def _score(self, rows: np.ndarray) -> np.ndarray:
        return self._combine([m.score(rows) for m in self.members])

    def score_batch(self, rows: np.ndarray) -> np.ndarray:
        """Vectorized: every member's batched fast path, combined once."""
        self._require_fitted()
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if rows.size == 0:
            return np.empty(0)
        return self._combine([m.score_batch(rows) for m in self.members])

    @property
    def threshold(self) -> float:
        return 0.5 if self.vote == "majority" else 1.0

    def reset(self) -> None:
        """Reset every stateful member (start of a new trace)."""
        for member in self.members:
            _reset_if_stateful(member)

    def make_stream_state(self, n_streams: int) -> list:
        """Per-member stream states (stateless members contribute None)."""
        return [m.make_stream_state(n_streams) for m in self.members]

    def step_streams(self, rows, state):
        """Advance every member on every stream; combine the votes."""
        self._require_fitted()
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        member_scores = []
        new_state = []
        for member, member_state in zip(self.members, state):
            scores, member_state = member.step_streams(rows, member_state)
            member_scores.append(scores)
            new_state.append(member_state)
        return self._combine(member_scores), new_state


def auc_weights(
    members: list[AnomalyDetector],
    clean_rows: np.ndarray,
    anomalous_rows: np.ndarray,
    sharpness: float = 4.0,
) -> list[float]:
    """Validation-calibrated ensemble weights from per-member ROC-AUC.

    Scores each *fitted* member on labeled validation rows and weights it
    by ``max(auc - 0.5, 0) ** sharpness``: members near chance contribute
    nothing, and a clearly dominant member dominates the vote — which is
    what lets the ensemble match its best member when the others only add
    noise.  Falls back to equal weights when every member is at chance.
    """
    clean_rows = np.atleast_2d(np.asarray(clean_rows, dtype=float))
    anomalous_rows = np.atleast_2d(np.asarray(anomalous_rows, dtype=float))
    rows = np.vstack([clean_rows, anomalous_rows])
    labels = np.concatenate(
        [np.zeros(len(clean_rows), int), np.ones(len(anomalous_rows), int)]
    )
    weights = []
    for member in members:
        _reset_if_stateful(member)
        scores = member.score_batch(rows)
        _reset_if_stateful(member)
        weights.append(max(roc_auc(scores, labels) - 0.5, 0.0) ** sharpness)
    if sum(weights) <= 0:
        return [1.0] * len(members)
    return weights


# -- fleet multiplexing --------------------------------------------------------


@dataclass(frozen=True)
class FleetConfig:
    """Fleet scoring policy.

    Attributes:
        consecutive_hits: anomalous samples required before a board alarms
            (same spike filter as the single-board daemon).
        warmup_s: time before any board may be scored.
        quarantine_after: consecutive non-finite rows before a board is
            quarantined (scored no more, alarms suppressed).
        release_after: consecutive finite rows before a quarantined board
            rejoins scoring.
    """

    consecutive_hits: int = 8
    warmup_s: float = 5.0
    quarantine_after: int = 3
    release_after: int = 50

    def __post_init__(self) -> None:
        if self.consecutive_hits < 1:
            raise ConfigError("consecutive_hits must be >= 1")
        if self.quarantine_after < 1 or self.release_after < 1:
            raise ConfigError("quarantine streaks must be >= 1")


@dataclass
class BoardScoringState:
    """One board's alarm/quarantine bookkeeping, as read out of a
    :class:`FleetScorer` (:meth:`FleetScorer.board`)."""

    board_id: str
    hits: int = 0
    quarantined: bool = False
    bad_streak: int = 0
    good_streak: int = 0
    alarms: list[float] = field(default_factory=list)
    samples_scored: int = 0
    samples_dropped: int = 0


#: Unfolded scores at which :meth:`FleetBoards.add_scores` folds, so a
#: scorer nobody reads holds at most this many.
FOLD_SCORES = 1 << 16


@dataclass
class FleetBoards:
    """A fleet scorer's whole mutable state.  Per-board values are
    arrays, index-aligned with the scorer's board ids, so one array
    operation updates the whole fleet.  The health rollup is read off
    this state (:meth:`health`) and a checkpoint is one :meth:`copy`.

    The ``fleet.score`` histogram is filled when it is read, not per
    tick: each tick's scores wait in ``unfolded`` (in stream order)
    until :meth:`fold` adds them all in one
    :meth:`~repro.obs.metrics.Histogram.record_many`.  :attr:`score`,
    :meth:`health` and :meth:`copy` fold first, and so does
    :meth:`add_scores` once :data:`FOLD_SCORES` wait, so every read
    sees exactly what recording each tick at once would have left.

    Attributes:
        hits: consecutive anomalous samples (the alarm persistence count).
        quarantined: whether the board is quarantined.
        bad_streak: consecutive non-finite rows.
        good_streak: consecutive finite rows.
        scored: samples scored.
        dropped: samples dropped (non-finite rows).
        quarantines: times the board was quarantined.
        releases: times the board was released from quarantine.
        alarms: each board's alarm times, append-only.
        stream_state: the detector's per-board stream state.
        anomalous: scored samples past threshold, fleet-wide.
        start_t: time of the first tick (None before it).
        threshold_scale: scale on the detector threshold.
        unfolded: each tick's scores not yet in the histogram.
        n_unfolded: how many scores ``unfolded`` holds.
    """

    hits: np.ndarray
    quarantined: np.ndarray
    bad_streak: np.ndarray
    good_streak: np.ndarray
    scored: np.ndarray
    dropped: np.ndarray
    quarantines: np.ndarray
    releases: np.ndarray
    alarms: list[list[float]]
    stream_state: object
    anomalous: int = 0
    start_t: float | None = None
    threshold_scale: float = 1.0
    unfolded: list[np.ndarray] = field(default_factory=list)
    n_unfolded: int = 0
    _score: Histogram = field(default_factory=lambda: Histogram(SCORE_BOUNDS))

    @classmethod
    def fresh(cls, n_boards: int, detector: AnomalyDetector) -> "FleetBoards":
        counts = (
            "hits", "bad_streak", "good_streak", "scored", "dropped",
            "quarantines", "releases",
        )
        return cls(
            **{name: np.zeros(n_boards, dtype=np.int64) for name in counts},
            quarantined=np.zeros(n_boards, dtype=bool),
            alarms=[[] for _ in range(n_boards)],
            stream_state=detector.make_stream_state(n_boards),
        )

    @property
    def score(self) -> Histogram:
        """Every score, as the ``fleet.score`` histogram (folded first)."""
        self.fold()
        return self._score

    def add_scores(self, scores: np.ndarray) -> None:
        """Queue one tick's scores for the histogram, folding once
        :data:`FOLD_SCORES` wait.  ``scores`` is held, not copied, as
        the ``step_streams`` contract allows
        (:meth:`~repro.detect.base.AnomalyDetector.step_streams`)."""
        self.unfolded.append(scores)
        self.n_unfolded += len(scores)
        if self.n_unfolded >= FOLD_SCORES:
            self.fold()

    def fold(self) -> None:
        """Add every unfolded score to the histogram, in stream order."""
        if self.unfolded:
            self._score.record_many(np.concatenate(self.unfolded))
            self.unfolded = []
            self.n_unfolded = 0

    def copy(self, alarm_lengths: list[int] | None = None) -> "FleetBoards":
        """A folded copy sharing nothing mutable with this state but the
        append-only alarm lists (the ``deepcopy`` memo maps them to
        themselves): shared as they are, or, given ``alarm_lengths``,
        cut to those lengths as new lists.  This state is folded too."""
        self.fold()
        boards = deepcopy(self, {id(self.alarms): self.alarms})
        if alarm_lengths is not None:
            boards.alarms = [a[:n] for a, n in zip(self.alarms, alarm_lengths)]
        return boards

    def health(self, board_ids: list[str]) -> Rollup:
        """The health rollup of this state, built fresh: per-board and
        fleet-wide counters, and a copy of the score histogram, which
        folds first (:attr:`score`).  Every entry is additive over
        boards, so scorers sharding one fleet's boards merge their
        rollups into *exactly* the rollup one scorer over the whole
        fleet would hold (the sharded mission-control property).  A key
        appears once the scorer has incremented it:
        ``fleet.dropped`` from the first tick, ``fleet.score`` from the
        first board scored, every other counter once it is nonzero.
        """
        health = Rollup()
        if self.start_t is not None:
            health.inc("fleet.dropped", int(self.dropped.sum()))
        if self.anomalous:
            health.inc("fleet.anomalous", self.anomalous)
        for kind, counts in (
            ("scored", self.scored.tolist()),
            ("alarms", list(map(len, self.alarms))),
            ("quarantines", self.quarantines.tolist()),
            ("releases", self.releases.tolist()),
        ):
            for board_id, n in zip(board_ids, counts):
                if n:
                    health.inc(f"fleet.{kind}", n)
                    health.inc(f"board.{board_id}.{kind}", n)
        if self.scored.any():
            health.merge(Rollup(histograms={"fleet.score": self.score}))
        return health


@dataclass
class FleetStep:
    """Result of scoring one fleet tick.

    Attributes:
        t: tick time.
        scores: per-board scores (NaN for unscored boards).
        anomalous: per-board anomaly flags.
        alarms: indices of boards whose alarm fired this tick.
        quarantined: indices newly quarantined this tick.
        released: indices released from quarantine this tick.
        warming_up: whether the fleet is still inside warmup.
    """

    t: float
    scores: np.ndarray
    anomalous: np.ndarray
    alarms: list[int]
    quarantined: list[int]
    released: list[int]
    warming_up: bool = False

    @property
    def n_scored(self) -> int:
        return int(np.isfinite(self.scores).sum())


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


class FleetScorer:
    """Scores N telemetry streams through one shared fitted detector.

    Each board keeps its own alarm persistence counter, quarantine state
    and (for sequential detectors) scoring state, but the trained model —
    coefficients, covariance, thresholds — is shared, so a fleet costs
    one fitted detector plus O(n_boards) scalars.  Every board evolves
    exactly as it would under a dedicated single-board daemon; the fleet
    pipeline test pins that equivalence down.

    A tick is array work, not a loop over boards: every mutable value
    lives in one :class:`FleetBoards`, whose per-board arrays a handful
    of whole-fleet array operations advance.  A tick pays for nothing
    that only a read needs: its scores wait unfolded until the
    ``fleet.score`` histogram is read or copied, then go in with every
    other waiting tick's in one batch (exactly as one record per score
    would leave it), and a tick with no dropout and no quarantined
    board skips the quarantine update.  Boards are visited in index
    order wherever order shows (alarm, quarantine and release lists).

    Attributes:
        detector: shared fitted detector.
        board_ids: the boards, index-aligned with score rows.
        boards: the scorer's whole mutable state (:class:`FleetBoards`).
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
        self.board_ids = list(board_ids)
        self.boards = FleetBoards.fresh(len(board_ids), detector)

    @property
    def threshold_scale(self) -> float:
        """Scale on the shared detector threshold (< 1 tightens)."""
        return self.boards.threshold_scale

    def set_threshold_scale(self, scale: float) -> None:
        """Tighten (< 1) or relax (> 1) alarming fleet-wide.

        The phase-adaptive degradation controller drives this on phase
        boundaries: an elevated-flux phase lowers the bar so small
        latch-ups alarm sooner, at the cost of more false positives —
        an acceptable trade while the SEL arrival rate is itself up.
        """
        if not np.isfinite(scale) or scale <= 0:
            raise ConfigError(f"threshold scale must be positive, got {scale}")
        self.boards.threshold_scale = float(scale)

    @property
    def n_boards(self) -> int:
        return len(self.board_ids)

    @property
    def health(self) -> Rollup:
        """Mergeable rollup of the scoring activity in :attr:`boards`
        (:meth:`FleetBoards.health`), built afresh on every read."""
        return self.boards.health(self.board_ids)

    def board(self, board_id: str) -> BoardScoringState:
        """A copy of one board's current state."""
        if board_id not in self.board_ids:
            raise ConfigError(f"unknown board id {board_id!r}")
        i = self.board_ids.index(board_id)
        boards = self.boards
        return BoardScoringState(
            board_id=board_id,
            hits=int(boards.hits[i]),
            quarantined=bool(boards.quarantined[i]),
            bad_streak=int(boards.bad_streak[i]),
            good_streak=int(boards.good_streak[i]),
            alarms=list(boards.alarms[i]),
            samples_scored=int(boards.scored[i]),
            samples_dropped=int(boards.dropped[i]),
        )

    def alarm_times(self) -> dict[str, list[float]]:
        """Alarm times of every board that has alarmed, in board order."""
        return {
            board_id: list(times)
            for board_id, times in zip(self.board_ids, self.boards.alarms)
            if times
        }

    def _update_quarantine(
        self, finite: np.ndarray
    ) -> tuple[list[int], list[int]]:
        boards = self.boards
        if not boards.quarantined.any() and finite.all():
            # What the general path below leaves when no row dropped out
            # and no board waits for release.
            boards.bad_streak.fill(0)
            boards.good_streak += 1
            return [], []
        config = self.config
        bad = ~finite
        boards.bad_streak = np.where(finite, 0, boards.bad_streak + 1)
        boards.good_streak = np.where(finite, boards.good_streak + 1, 0)
        boards.hits[bad] = 0
        boards.dropped += bad
        newly_quarantined = (
            bad & ~boards.quarantined
            & (boards.bad_streak >= config.quarantine_after)
        )
        released = (
            finite & boards.quarantined
            & (boards.good_streak >= config.release_after)
        )
        boards.quarantined = (
            (boards.quarantined | newly_quarantined) & ~released
        )
        boards.quarantines += newly_quarantined
        boards.releases += released
        return (
            np.flatnonzero(newly_quarantined).tolist(),
            np.flatnonzero(released).tolist(),
        )

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
        boards = self.boards
        if boards.start_t is None:
            boards.start_t = t
        finite = np.isfinite(rows).all(axis=1)
        newly_quarantined, released = self._update_quarantine(finite)
        scores = np.full(self.n_boards, np.nan)
        anomalous = np.zeros(self.n_boards, dtype=bool)
        warming_up = (t - boards.start_t) < self.config.warmup_s
        alarms: list[int] = []
        if not warming_up:
            idx = np.flatnonzero(finite & ~boards.quarantined)
            if len(idx):
                sub_state = _state_select(boards.stream_state, idx)
                sub_scores, sub_state = self.detector.step_streams(
                    rows[idx], sub_state
                )
                _state_assign(boards.stream_state, idx, sub_state)
                scores[idx] = sub_scores
                flags = sub_scores > self.detector.threshold * boards.threshold_scale
                anomalous[idx] = flags
                boards.scored[idx] += 1
                boards.add_scores(sub_scores)
                boards.anomalous += int(np.count_nonzero(flags))
                hits = np.where(flags, boards.hits[idx] + 1, 0)
                fired = hits >= self.config.consecutive_hits
                hits[fired] = 0
                boards.hits[idx] = hits
                alarms = idx[fired].tolist()
                for i in alarms:
                    boards.alarms[i].append(t)
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
        self.boards = FleetBoards.fresh(self.n_boards, self.detector)
        _reset_if_stateful(self.detector)
