"""EWMA drift detector over a scalar stream (usually the model residual).

Latch-ups are *sustained* shifts; DVFS spikes are brief.  An exponentially
weighted moving average of the residual integrates out spikes but tracks a
persistent step, making it a good post-filter behind the residual model.
"""

from __future__ import annotations

import numpy as np

from repro.detect.base import AnomalyDetector
from repro.errors import ConfigError


class EwmaDetector(AnomalyDetector):
    """EWMA of the current channel's deviation from its training mean.

    Stateful: ``score`` processes rows in order and carries the EWMA
    across calls.  Call :meth:`reset` between independent traces.
    """

    def __init__(self, alpha: float = 0.08, z_threshold: float = 4.0) -> None:
        super().__init__()
        if not 0 < alpha <= 1:
            raise ConfigError(f"alpha {alpha} outside (0, 1]")
        self.alpha = alpha
        self.z_threshold = z_threshold
        self._mean = 0.0
        self._sigma = 1.0
        self._ewma = 0.0

    def reset(self) -> None:
        """Clear the running average (start of a new trace)."""
        self._ewma = 0.0

    def _fit(self, rows: np.ndarray) -> None:
        current = rows[:, -1]
        self._mean = float(current.mean())
        self._sigma = float(max(current.std(), 1e-9))
        self.reset()

    def _ewma_sigma(self) -> float:
        # Steady-state EWMA std of iid input is sigma * sqrt(a / (2 - a)).
        return self._sigma * np.sqrt(self.alpha / (2.0 - self.alpha))

    def _score(self, rows: np.ndarray) -> np.ndarray:
        # Deviations are computed in one vectorized pass; only the EWMA
        # recursion itself runs as a scalar loop (it is inherently
        # sequential, and reassociating it would break the bitwise
        # batch-equals-per-sample contract).
        ewma_sigma = self._ewma_sigma()
        deviations = rows[:, -1] - self._mean
        scores = np.empty(len(rows))
        ewma = self._ewma
        alpha = self.alpha
        for i, deviation in enumerate(deviations.tolist()):
            ewma = alpha * deviation + (1 - alpha) * ewma
            scores[i] = abs(ewma) / ewma_sigma
        self._ewma = ewma
        return scores

    def make_stream_state(self, n_streams: int) -> np.ndarray:
        """One EWMA accumulator per stream (board)."""
        return np.zeros(n_streams)

    def step_streams(self, rows, state):
        """Advance every stream's EWMA by one sample, elementwise."""
        self._require_fitted()
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        deviations = rows[:, -1] - self._mean
        state = self.alpha * deviations + (1 - self.alpha) * state
        return np.abs(state) / self._ewma_sigma(), state

    @property
    def threshold(self) -> float:
        return self.z_threshold
