"""Elliptic-envelope detector over joint (features, current) rows.

The detector the paper proposes to train on testbed data (sect. 3.1): fit a
robust Gaussian envelope (FAST-MCD location/covariance) to clean joint
telemetry; score new samples by Mahalanobis distance.  A latch-up shifts
current without shifting features, moving the joint sample off the learned
correlation ellipsoid even when the absolute current stays within its
normal range.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from repro.detect.base import AnomalyDetector
from repro.detect.mcd import McdResult, fast_mcd
from repro.errors import ConfigError


class EllipticEnvelopeDetector(AnomalyDetector):
    """Robust Mahalanobis gate on joint (features, current) vectors.

    Attributes:
        contamination: assumed outlier fraction in training data; sets the
            chi-square score threshold.
        support_fraction: MCD subset fraction.
    """

    def __init__(
        self,
        contamination: float = 0.02,
        support_fraction: float = 0.95,
        persistence: int = 8,
        safety_factor: float = 1.5,
        seed: int | None = None,
    ) -> None:
        super().__init__()
        if not 0 < contamination < 0.5:
            raise ConfigError(
                f"contamination {contamination} outside (0, 0.5)"
            )
        if persistence < 1:
            raise ConfigError(f"persistence must be >= 1, got {persistence}")
        self.contamination = contamination
        self.support_fraction = support_fraction
        self.persistence = persistence
        self.safety_factor = safety_factor
        self.seed = seed
        self._mcd: McdResult | None = None
        self._threshold = np.inf

    def _fit(self, rows: np.ndarray) -> None:
        self._mcd = fast_mcd(
            rows,
            support_fraction=self.support_fraction,
            seed=self.seed,
        )
        d = rows.shape[1]
        chi2_cut = float(stats.chi2.ppf(1.0 - self.contamination, df=d))
        # Persistence-aware calibration: the daemon only alarms on
        # ``persistence`` *consecutive* exceedances, so the threshold must
        # only clear every clean run of that length.  Take the rolling
        # minimum over persistence-sized windows of the clean training
        # scores — brief DVFS spikes (shorter than the window) drop out —
        # and gate above its maximum with a safety margin.
        scores = self._score(rows)
        if len(scores) >= self.persistence:
            window = np.lib.stride_tricks.sliding_window_view(
                scores, self.persistence
            )
            sustained = float(window.min(axis=1).max())
        else:
            sustained = float(scores.max())
        self._threshold = max(chi2_cut, self.safety_factor * sustained)

    def _score(self, rows: np.ndarray) -> np.ndarray:
        # The fixed-order column reduction is batch-size invariant: a
        # batch scores bitwise equal to its rows one at a time.
        assert self._mcd is not None
        return self._mcd.mahalanobis_sq(rows)

    @property
    def threshold(self) -> float:
        return self._threshold

    @property
    def mcd(self) -> McdResult:
        if self._mcd is None:
            raise ConfigError("detector is not fitted")
        return self._mcd
