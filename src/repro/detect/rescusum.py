"""Residual-CUSUM: the library's strongest SEL detector.

Combines the paper's two ideas: model expected current from software
features (the metric-aware residual), then run a clipped one-sided CUSUM on
the residual stream.  A latch-up is a *sustained positive* residual step,
so the CUSUM accumulates it linearly and crosses the alarm level even for
few-mA deltas; DVFS spikes are brief, and clipping each sample's
contribution bounds how far a spike can push the statistic before it decays
away.
"""

from __future__ import annotations

import numpy as np

from repro.detect.base import AnomalyDetector
from repro.detect.regression import LinearResidualDetector
from repro.errors import ConfigError


class ResidualCusumDetector(AnomalyDetector):
    """Clipped one-sided CUSUM over linear-model current residuals.

    Attributes:
        k_sigma: per-sample slack (drift allowance) in residual sigmas.
        h_sigma: alarm level of the accumulated statistic.
        clip_sigma: per-sample contribution cap; must satisfy
            (clip - k) * spike_samples < h so a lone DVFS spike cannot
            alarm.
    """

    def __init__(
        self,
        k_sigma: float = 0.5,
        h_sigma: float = 16.0,
        clip_sigma: float = 4.0,
        ridge: float = 1e-6,
    ) -> None:
        super().__init__()
        if not 0 <= k_sigma < clip_sigma:
            raise ConfigError("need 0 <= k < clip")
        if h_sigma <= 0:
            raise ConfigError("alarm level h must be positive")
        self.k_sigma = k_sigma
        self.h_sigma = h_sigma
        self.clip_sigma = clip_sigma
        self._model = LinearResidualDetector(ridge=ridge)
        self._s = 0.0

    def reset(self) -> None:
        """Clear the accumulated statistic (start of a new trace)."""
        self._s = 0.0

    def _fit(self, rows: np.ndarray) -> None:
        self._model.fit(rows)
        self.reset()

    def _score(self, rows: np.ndarray) -> np.ndarray:
        # Model prediction and standardization are vectorized; only the
        # clipped accumulation runs sequentially (scalar loop, to keep
        # the bitwise batch-equals-per-sample contract).
        expected = self._model.expected_current(rows)
        sigma = self._model.residual_sigma_a
        zs = (rows[:, -1] - expected) / sigma
        scores = np.empty(len(rows))
        s = self._s
        k, clip = self.k_sigma, self.clip_sigma
        for i, z in enumerate(zs.tolist()):
            z = min(z, clip)
            s = max(0.0, s + z - k)
            scores[i] = s
        self._s = s
        return scores

    def partial_fit(self, rows: np.ndarray, forgetting: float = 1.0) -> None:
        """Warm-started update of the underlying linear current model."""
        self._model.partial_fit(rows, forgetting=forgetting)

    def make_stream_state(self, n_streams: int) -> np.ndarray:
        """One CUSUM accumulator per stream (board)."""
        return np.zeros(n_streams)

    def step_streams(self, rows, state):
        """Advance every stream's residual CUSUM by one sample."""
        self._require_fitted()
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        expected = self._model.expected_current(rows)
        zs = (rows[:, -1] - expected) / self._model.residual_sigma_a
        zs = np.minimum(zs, self.clip_sigma)
        state = np.maximum(0.0, state + zs - self.k_sigma)
        return state.copy(), state

    @property
    def threshold(self) -> float:
        return self.h_sigma

    @property
    def residual_sigma_a(self) -> float:
        return self._model.residual_sigma_a
