"""Black-box fixed current threshold — the industry baseline.

"State-of-the-art software methods include setting a maximum current draw
before power cycling the device" (sect. 1).  The threshold is calibrated
from clean training data as a quantile plus margin; the detector sees only
the current column.
"""

from __future__ import annotations

import numpy as np

from repro.detect.base import AnomalyDetector
from repro.errors import ConfigError


class CurrentThresholdDetector(AnomalyDetector):
    """Flags any sample whose current exceeds a calibrated ceiling.

    Attributes:
        quantile: training-current quantile used as the base level.
        margin_a: additional headroom above the base level.
    """

    def __init__(self, quantile: float = 0.999, margin_a: float = 0.05) -> None:
        super().__init__()
        if not 0.0 < quantile <= 1.0:
            raise ConfigError(f"quantile {quantile} outside (0, 1]")
        self.quantile = quantile
        self.margin_a = margin_a
        self._ceiling = float("inf")

    def _fit(self, rows: np.ndarray) -> None:
        current = rows[:, -1]
        self._ceiling = float(np.quantile(current, self.quantile)) + self.margin_a

    def _score(self, rows: np.ndarray) -> np.ndarray:
        return rows[:, -1] - self._ceiling

    @property
    def threshold(self) -> float:
        return 0.0

    @property
    def ceiling_a(self) -> float:
        """The calibrated absolute current ceiling."""
        return self._ceiling
