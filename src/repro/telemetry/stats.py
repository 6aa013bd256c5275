"""Statistics helpers for telemetry analysis."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError


def pearson_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation coefficient of two equal-length series.

    This is the statistic behind the paper's headline Figure 1 number:
    "the correlation between CPU usage and current draw was 99.9%".
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ConfigError(f"shape mismatch: {x.shape} vs {y.shape}")
    if len(x) < 2:
        raise ConfigError("need at least two samples for a correlation")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc * xc).sum() * (yc * yc).sum())
    if denom == 0:
        return 0.0
    # Rounding (subnormal squares of tiny deviations) can leave [-1, 1].
    return float(np.clip((xc * yc).sum() / denom, -1.0, 1.0))
