"""Online operation: drift tracking and incremental refit.

A detector trained once on clean telemetry slowly goes stale: DVFS
governors retune, thermal state shifts the leakage floor, sensors drift.
Refitting from scratch on full history stalls the scoring path and needs
unbounded memory.  :class:`OnlineRefit` wraps any detector with

- a bounded **window buffer** of recent rows the detector itself judged
  clean (anomalous rows are excluded, so an active latch-up can neither
  poison the training window nor trigger a refit that absorbs it);
- cheap **warm-started updates** every ``refit_every`` clean rows for
  detectors exposing ``partial_fit`` (the linear residual family decays
  its accumulated normal equations and folds the new rows in — O(d^2)
  per row, no history re-scan);
- a **drift statistic** (EWMA of the standardized clean score) that
  triggers a full :meth:`refresh` — for the elliptic envelope, a
  FAST-MCD re-estimate — only when the score distribution has actually
  moved, so the expensive path runs rarely and never on a schedule.

Refit triggers are evaluated once per ``score`` call, i.e. at batch
granularity: a daemon feeding one sample at a time gets per-sample
triggering, while a batched caller gets it between batches.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.detect.base import AnomalyDetector
from repro.errors import ConfigError

#: Scale floor as a fraction of (threshold - center): keeps the drift
#: statistic meaningful for one-sided scores (CUSUM) whose clean MAD is 0.
_SCALE_FLOOR_FRACTION = 0.05


class OnlineRefit(AnomalyDetector):
    """Wraps a detector with windowed, drift-triggered incremental refit.

    Attributes:
        detector: the wrapped detector (scores pass straight through).
        window_rows: capacity of the clean-row window buffer.
        refit_every: clean rows between warm-started partial updates.
        drift_alpha: EWMA weight of the drift statistic.
        drift_sigmas: |drift| level that triggers a full refresh.
        forgetting: decay passed to ``partial_fit`` on warm updates.
        partial_updates: warm updates performed so far.
        refreshes: full refreshes performed so far.
    """

    def __init__(
        self,
        detector: AnomalyDetector,
        window_rows: int = 600,
        refit_every: int = 200,
        drift_alpha: float = 0.02,
        drift_sigmas: float = 1.5,
        forgetting: float = 0.98,
    ) -> None:
        super().__init__()
        if window_rows < 2:
            raise ConfigError(f"window_rows must be >= 2, got {window_rows}")
        if refit_every < 1:
            raise ConfigError(f"refit_every must be >= 1, got {refit_every}")
        if not 0.0 < drift_alpha <= 1.0:
            raise ConfigError(f"drift_alpha {drift_alpha} outside (0, 1]")
        if drift_sigmas <= 0:
            raise ConfigError("drift_sigmas must be positive")
        self.detector = detector
        self.window_rows = window_rows
        self.refit_every = refit_every
        self.drift_alpha = drift_alpha
        self.drift_sigmas = drift_sigmas
        self.forgetting = forgetting
        self.partial_updates = 0
        self.refreshes = 0
        self._buffer: deque[np.ndarray] = deque(maxlen=window_rows)
        self._pending: list[np.ndarray] = []
        self._drift = 0.0
        self._center = 0.0
        self._scale = 1.0
        self._clean_since_update = 0

    # -- calibration -----------------------------------------------------------

    def _reset_inner(self) -> None:
        reset = getattr(self.detector, "reset", None)
        if callable(reset):
            reset()

    def _calibrate_drift_scale(self, rows: np.ndarray) -> None:
        """Center/scale of the wrapped detector's clean-score distribution."""
        scores = self.detector.score(rows)
        self._reset_inner()
        self._center = float(np.median(scores))
        mad = float(np.median(np.abs(scores - self._center)))
        floor = _SCALE_FLOOR_FRACTION * (
            self.detector.threshold - self._center
        )
        self._scale = max(mad * 1.4826, floor, 1e-9)

    def _fit(self, rows: np.ndarray) -> None:
        self.detector.fit(rows)
        self._buffer = deque(
            (row.copy() for row in rows), maxlen=self.window_rows
        )
        self._pending = []
        self._drift = 0.0
        self._clean_since_update = 0
        self._calibrate_drift_scale(rows)

    # -- scoring with online bookkeeping ---------------------------------------

    def _observe(self, rows: np.ndarray, scores: np.ndarray) -> None:
        """Fold scored rows into the window buffer and drift statistic."""
        clean = scores <= self.detector.threshold
        alpha = self.drift_alpha
        drift = self._drift
        for i in np.nonzero(clean)[0].tolist():
            row = rows[i].copy()
            self._buffer.append(row)
            self._pending.append(row)
            standardized = (float(scores[i]) - self._center) / self._scale
            drift = alpha * standardized + (1 - alpha) * drift
        self._drift = drift
        self._clean_since_update += int(clean.sum())
        self._maybe_refit()

    def _score(self, rows: np.ndarray) -> np.ndarray:
        scores = self.detector.score(rows)
        self._observe(rows, scores)
        return scores

    def _maybe_refit(self) -> None:
        if abs(self._drift) >= self.drift_sigmas and self.window_full:
            self.refresh()
            return
        if self._clean_since_update >= self.refit_every and self._pending:
            partial = getattr(self.detector, "partial_fit", None)
            if callable(partial):
                partial(np.stack(self._pending), forgetting=self.forgetting)
                self.partial_updates += 1
            self._pending = []
            self._clean_since_update = 0

    # -- explicit refit --------------------------------------------------------

    @property
    def window_full(self) -> bool:
        return len(self._buffer) >= self.window_rows

    @property
    def drift(self) -> float:
        """Current standardized-score drift (EWMA)."""
        return self._drift

    def window_matrix(self) -> np.ndarray:
        """Current clean-row window as an (n, d) matrix."""
        if not self._buffer:
            raise ConfigError("refit window is empty")
        return np.stack(tuple(self._buffer))

    def refresh(self) -> None:
        """Full refit of the wrapped detector on the buffered window.

        For the elliptic envelope this is the FAST-MCD refresh; for the
        linear residual family a full re-solve.  Idempotent: refreshing
        twice on an unchanged window yields an identical detector (the
        wrapped fits are deterministic under their stored seeds).
        """
        window = self.window_matrix()
        if window.shape[0] < 2:
            raise ConfigError("refit window needs at least two rows")
        self.detector.fit(window)
        self._calibrate_drift_scale(window)
        self._drift = 0.0
        self._pending = []
        self._clean_since_update = 0
        self.refreshes += 1

    # -- passthrough -----------------------------------------------------------

    @property
    def threshold(self) -> float:
        return self.detector.threshold

    def reset(self) -> None:
        """Reset the wrapped detector's trace state (not the window)."""
        self._reset_inner()

    def make_stream_state(self, n_streams: int):
        return self.detector.make_stream_state(n_streams)

    def step_streams(self, rows, state):
        """Stream scoring passes through; bookkeeping stays per-call.

        Fleet callers score one row per board; the clean-row window and
        drift statistic update exactly as in :meth:`_score`.
        """
        self._require_fitted()
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        scores, state = self.detector.step_streams(rows, state)
        self._observe(rows, scores)
        return scores, state
