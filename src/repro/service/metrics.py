"""Decision-latency metrics for the mission-control service.

Latency is measured wall-clock (``perf_counter``) from the instant a
frame is enqueued to the instant the supervisor applies the decision
that consumed it.  Stamps live only on in-flight
:class:`~repro.service.queues.Frame` objects and in this tracker —
never in traced events, which stay clock-free and byte-identical across
runs.

Percentiles use the nearest-rank definition (ceil(p/100 * n)), so every
reported quantile is an actually-observed sample, and the edge cases
are NaN-free by contract:

- an **empty** summary reports ``count == 0`` and the explicit
  ``0.0`` sentinel for mean/max and every percentile (consumers must
  key off ``count``, not the values);
- a **single-sample** summary reports that sample for every percentile
  (nearest-rank of one value is that value — no interpolation, no NaN).

``tests/service/test_metrics_edge.py`` pins both contracts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: Value reported for mean/max/percentiles of an empty summary.  Chosen
#: over NaN so summaries stay JSON-round-trippable and comparable; the
#: paired ``count == 0`` disambiguates "no data" from "zero latency".
EMPTY_SENTINEL = 0.0

#: Percentiles every summary reports.
DEFAULT_PERCENTILES = (50.0, 90.0, 99.0)


def nearest_rank(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile over pre-sorted values.

    Returns :data:`EMPTY_SENTINEL` for an empty input; for a single
    value returns that value for every ``p``.
    """
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile out of range: {p}")
    n = len(sorted_values)
    if n == 0:
        return EMPTY_SENTINEL
    rank = math.ceil(p / 100.0 * n)
    return float(sorted_values[max(rank, 1) - 1])


def latency_summary(
    values: list[float],
    percentiles: tuple[float, ...] = DEFAULT_PERCENTILES,
) -> dict[str, float]:
    """NaN-free summary of latency samples (seconds).

    Non-finite samples are excluded from the statistics but reported in
    ``dropped`` so the accounting stays exact.
    """
    finite = sorted(v for v in values if math.isfinite(v))
    summary: dict[str, float] = {
        "count": len(finite),
        "dropped": len(values) - len(finite),
    }
    if finite:
        summary["mean"] = sum(finite) / len(finite)
        summary["max"] = finite[-1]
    else:
        summary["mean"] = EMPTY_SENTINEL
        summary["max"] = EMPTY_SENTINEL
    for p in percentiles:
        name = f"p{int(p)}" if float(p).is_integer() else f"p{p}"
        summary[name] = nearest_rank(finite, p)
    return summary


@dataclass
class DecisionLatencyTracker:
    """Accumulates enqueue-to-decision latencies (seconds)."""

    _samples: list[float] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self._samples)

    def record(self, latency_s: float) -> None:
        """Record one decision latency."""
        self._samples.append(latency_s)

    def summary(self) -> dict[str, float]:
        """Summary over every recorded sample."""
        return latency_summary(self._samples)


def rows_per_second(n_rows: int, elapsed_s: float) -> float:
    """Throughput with a zero-elapsed guard (0.0, never inf/NaN)."""
    if elapsed_s <= 0 or n_rows <= 0:
        return 0.0
    return n_rows / elapsed_s
