"""Detector interface.

All detectors share a two-phase life cycle: ``fit`` on clean training
telemetry (rows = samples; the last column is measured current, preceding
columns are software features), then ``score`` new rows — higher scores
mean more anomalous.  ``predict`` applies the detector's calibrated
threshold.

Two batched fast paths extend the per-sample contract:

- :meth:`AnomalyDetector.score_batch` scores one *stream* of rows and must
  be numerically identical to scoring them one at a time (the default
  implementation literally loops; vectorized overrides keep bitwise
  equality by using batch-size-invariant reductions such as ``einsum``).
- :meth:`AnomalyDetector.step_streams` scores one row from each of N
  *independent* streams (one per fleet board) in a single call,
  threading per-stream detector state through an opaque handle from
  :meth:`AnomalyDetector.make_stream_state`.  Stateless detectors ignore
  the state; sequential detectors (EWMA, CUSUM) vectorize their
  recursion elementwise across streams.
"""

from __future__ import annotations

import abc
import enum

import numpy as np

from repro.errors import DetectorError


class FittedState(enum.Enum):
    """Whether a detector has been trained."""

    UNFITTED = "unfitted"
    FITTED = "fitted"


class AnomalyDetector(abc.ABC):
    """Base class for all SEL detectors."""

    def __init__(self) -> None:
        self.state = FittedState.UNFITTED

    @abc.abstractmethod
    def _fit(self, rows: np.ndarray) -> None:
        """Train on clean telemetry rows."""

    @abc.abstractmethod
    def _score(self, rows: np.ndarray) -> np.ndarray:
        """Anomaly score per row (higher = more anomalous)."""

    @property
    @abc.abstractmethod
    def threshold(self) -> float:
        """Score above which a row is flagged."""

    def fit(self, rows: np.ndarray) -> "AnomalyDetector":
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if rows.shape[0] < 2:
            raise DetectorError("need at least two training rows")
        self._fit(rows)
        self.state = FittedState.FITTED
        return self

    def score(self, rows: np.ndarray) -> np.ndarray:
        if self.state is not FittedState.FITTED:
            raise DetectorError(f"{type(self).__name__} is not fitted")
        return self._score(np.atleast_2d(np.asarray(rows, dtype=float)))

    def predict(self, rows: np.ndarray) -> np.ndarray:
        """Boolean anomaly flags per row."""
        return self.score(rows) > self.threshold

    def score_one(self, row: np.ndarray) -> float:
        return float(self.score(row.reshape(1, -1))[0])

    # -- batched fast paths ----------------------------------------------------

    def _require_fitted(self) -> None:
        if self.state is not FittedState.FITTED:
            raise DetectorError(f"{type(self).__name__} is not fitted")

    def score_batch(self, rows: np.ndarray) -> np.ndarray:
        """Score a batch of rows from one stream.

        Contract: numerically identical to calling :meth:`score` on each
        row in order (including state advancement for sequential
        detectors).  The base implementation loops; subclasses override
        with vectorized math that preserves bitwise equality.
        """
        self._require_fitted()
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if rows.size == 0:
            return np.empty(0)
        return np.concatenate(
            [self._score(rows[i:i + 1]) for i in range(rows.shape[0])]
        )

    def predict_batch(self, rows: np.ndarray) -> np.ndarray:
        """Boolean anomaly flags via the batched fast path."""
        return self.score_batch(rows) > self.threshold

    def make_stream_state(self, n_streams: int):
        """Fresh per-stream scoring state for :meth:`step_streams`.

        ``None`` means the detector is stateless across samples and the
        default :meth:`step_streams` just batch-scores the rows.
        """
        return None

    def step_streams(self, rows, state):
        """Score row ``i`` with stream ``i``'s state; one row per stream.

        Returns ``(scores, new_state)``.  Each stream must evolve exactly
        as if it were scored alone with a dedicated detector instance —
        the property the fleet scorer's equivalence tests pin down.
        ``scores`` must be a new array, never one the detector writes to
        later: the fleet scorer keeps it until it folds its score
        histogram.
        """
        return self.score_batch(rows), state
