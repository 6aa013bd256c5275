"""Decision-latency metrics for the mission-control service.

Latency is measured wall-clock (``perf_counter``) from the instant a
frame is enqueued to the instant the supervisor applies the decision
that consumed it.  Stamps live only on in-flight
:class:`~repro.service.queues.Frame` objects and in this tracker —
never in traced events, which stay clock-free and byte-identical across
runs.  Summaries are :func:`repro.obs.metrics.latency_summary`'s
nearest-rank, NaN-free ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import latency_summary


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
