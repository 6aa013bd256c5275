"""CUSUM change-point detector over the current channel.

The classic sequential test for a sustained mean shift: accumulate
deviations beyond a slack ``k``; alarm when the accumulation passes ``h``.
Detects small persistent steps (the few-mA latch-up case) at the cost of
latency proportional to h / shift.
"""

from __future__ import annotations

import numpy as np

from repro.detect.base import AnomalyDetector
from repro.errors import ConfigError


class CusumDetector(AnomalyDetector):
    """One-sided (upward) CUSUM on current, standardized by training stats.

    Stateful across ``score`` calls; call :meth:`reset` between traces.
    """

    def __init__(self, k_sigma: float = 0.5, h_sigma: float = 8.0) -> None:
        super().__init__()
        if k_sigma < 0 or h_sigma <= 0:
            raise ConfigError("k must be >= 0 and h > 0")
        self.k_sigma = k_sigma
        self.h_sigma = h_sigma
        self._mean = 0.0
        self._sigma = 1.0
        self._s = 0.0

    def reset(self) -> None:
        """Clear the accumulated statistic (start of a new trace)."""
        self._s = 0.0

    def _fit(self, rows: np.ndarray) -> None:
        current = rows[:, -1]
        self._mean = float(current.mean())
        self._sigma = float(max(current.std(), 1e-9))
        self.reset()

    def _score(self, rows: np.ndarray) -> np.ndarray:
        # Standardization is vectorized; the clipped accumulation is the
        # only sequential part (and must stay a scalar loop to keep the
        # bitwise batch-equals-per-sample contract).
        zs = (rows[:, -1] - self._mean) / self._sigma
        scores = np.empty(len(rows))
        s = self._s
        k = self.k_sigma
        for i, z in enumerate(zs.tolist()):
            s = max(0.0, s + z - k)
            scores[i] = s
        self._s = s
        return scores

    def make_stream_state(self, n_streams: int) -> np.ndarray:
        """One CUSUM accumulator per stream (board)."""
        return np.zeros(n_streams)

    def step_streams(self, rows, state):
        """Advance every stream's CUSUM by one sample, elementwise."""
        self._require_fitted()
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        zs = (rows[:, -1] - self._mean) / self._sigma
        state = np.maximum(0.0, state + zs - self.k_sigma)
        return state.copy(), state

    @property
    def threshold(self) -> float:
        return self.h_sigma
