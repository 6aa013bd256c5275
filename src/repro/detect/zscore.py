"""Black-box rolling z-score over current — a smarter naive baseline.

Scores each sample by how many standard deviations its current sits from
the training-current mean.  Still blind to workload: a legitimate 4-core
burst looks exactly like a fault.
"""

from __future__ import annotations

import numpy as np

from repro.detect.base import AnomalyDetector
from repro.errors import ConfigError


class RollingZScoreDetector(AnomalyDetector):
    """|z| of the current channel against the training distribution."""

    def __init__(self, z_threshold: float = 4.0) -> None:
        super().__init__()
        if z_threshold <= 0:
            raise ConfigError(f"z threshold must be positive: {z_threshold}")
        self.z_threshold = z_threshold
        self._mean = 0.0
        self._std = 1.0

    def _fit(self, rows: np.ndarray) -> None:
        current = rows[:, -1]
        self._mean = float(current.mean())
        self._std = float(max(current.std(), 1e-9))

    def _score(self, rows: np.ndarray) -> np.ndarray:
        return np.abs(rows[:, -1] - self._mean) / self._std

    @property
    def threshold(self) -> float:
        return self.z_threshold
