"""Metric-aware linear residual detector.

Implements the paper's core move directly: "extract features accessible to
the OS ... to model the current draw" (sect. 3.1).  Expected current is a
least-squares linear function of the software features; the anomaly score
is the standardized *residual* (measured minus expected).  A latch-up adds
current that no feature explains, so the residual jumps by the full latch-up
delta — regardless of what the workload is doing.
"""

from __future__ import annotations

import numpy as np

from repro.detect.base import AnomalyDetector
from repro.errors import ConfigError


class LinearResidualDetector(AnomalyDetector):
    """Standardized residual of current against a linear feature model.

    Attributes:
        z_threshold: flag when |residual| exceeds this many residual sigmas.
        ridge: L2 regularization on the fit (stabilizes collinear features,
            e.g. cpu_util vs per-core utils).
    """

    def __init__(self, z_threshold: float = 5.0, ridge: float = 1e-6) -> None:
        super().__init__()
        if z_threshold <= 0:
            raise ConfigError(f"z threshold must be positive: {z_threshold}")
        self.z_threshold = z_threshold
        self.ridge = ridge
        self._coef: np.ndarray | None = None
        self._sigma = 1.0
        # Accumulated normal equations (without the ridge term), kept so
        # partial_fit can warm-start instead of re-solving full history.
        self._gram: np.ndarray | None = None
        self._xty: np.ndarray | None = None

    def _design(self, rows: np.ndarray) -> np.ndarray:
        features = rows[:, :-1]
        return np.column_stack([np.ones(len(features)), features])

    def _solve(self) -> None:
        assert self._gram is not None and self._xty is not None
        gram = self._gram + self.ridge * np.eye(self._gram.shape[0])
        self._coef = np.linalg.solve(gram, self._xty)

    def _fit(self, rows: np.ndarray) -> None:
        design = self._design(rows)
        current = rows[:, -1]
        self._gram = design.T @ design
        self._xty = design.T @ current
        self._solve()
        residuals = current - design @ self._coef
        # Robust scale: MAD * 1.4826.  Training traces contain DVFS spikes;
        # a plain std would inflate sigma and desensitize the detector.
        mad = float(np.median(np.abs(residuals - np.median(residuals))))
        self._sigma = max(mad * 1.4826, 1e-9)

    def partial_fit(self, rows: np.ndarray, forgetting: float = 1.0) -> None:
        """Warm-started update from new clean rows.

        Decays the accumulated normal equations by ``forgetting`` and adds
        the new rows' contribution, then re-solves — O(d^2) per row and no
        stall on storing or re-scanning full history, so the model can
        track slow DVFS/thermal drift online.  The residual scale blends
        toward the new rows' robust estimate at the same rate.
        """
        if self._gram is None:
            raise ConfigError("detector is not fitted")
        if not 0.0 < forgetting <= 1.0:
            raise ConfigError(f"forgetting {forgetting} outside (0, 1]")
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if rows.shape[0] == 0:
            return
        design = self._design(rows)
        current = rows[:, -1]
        self._gram = forgetting * self._gram + design.T @ design
        self._xty = forgetting * self._xty + design.T @ current
        self._solve()
        residuals = current - design @ self._coef
        mad = float(np.median(np.abs(residuals - np.median(residuals))))
        new_sigma = max(mad * 1.4826, 1e-9)
        self._sigma = max(
            forgetting * self._sigma + (1.0 - forgetting) * new_sigma, 1e-9
        )

    def expected_current(self, rows: np.ndarray) -> np.ndarray:
        """Model-predicted current for each row.

        Uses an ``einsum`` row reduction rather than ``@``: BLAS matmul
        picks different blocking for different batch sizes, while einsum
        reduces each row identically — which is what makes the batched
        score path bitwise equal to per-sample scoring.
        """
        if self._coef is None:
            raise ConfigError("detector is not fitted")
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        return np.einsum("ij,j->i", self._design(rows), self._coef)

    def _score(self, rows: np.ndarray) -> np.ndarray:
        expected = self.expected_current(rows)
        return np.abs(rows[:, -1] - expected) / self._sigma

    @property
    def threshold(self) -> float:
        return self.z_threshold

    @property
    def residual_sigma_a(self) -> float:
        """Training residual scale in amperes (detection floor ~ z*sigma)."""
        return self._sigma
