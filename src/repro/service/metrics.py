"""Decision-latency metrics for the mission-control service.

Latency is measured wall-clock (``perf_counter``) from the instant a
frame is enqueued to the instant the supervisor applies the decision
that consumed it.  Stamps live only on in-flight
:class:`~repro.service.queues.Frame` objects and in this tracker —
never in traced events, which stay clock-free and byte-identical across
runs.  A tick's frames share one enqueue stamp and one decision, so
they share one latency: the service records it once per tick with the
tick's frame count, and the summary is the one of the per-frame
samples spelled out (:func:`repro.obs.metrics.latency_summary`'s
nearest-rank, NaN-free one).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import latency_summary


@dataclass
class DecisionLatencyTracker:
    """Accumulates enqueue-to-decision latencies (seconds), each with
    the number of frames it stands for."""

    _latencies: list[float] = field(default_factory=list)
    _counts: list[int] = field(default_factory=list)

    @property
    def count(self) -> int:
        """Frames recorded."""
        return sum(self._counts)

    def record(self, latency_s: float, n_frames: int = 1) -> None:
        """Record one decision latency shared by ``n_frames`` frames."""
        self._latencies.append(latency_s)
        self._counts.append(n_frames)

    def summary(self) -> dict[str, float]:
        """Summary over every recorded frame."""
        return latency_summary(self._latencies, counts=self._counts)


def rows_per_second(n_rows: int, elapsed_s: float) -> float:
    """Throughput with a zero-elapsed guard (0.0, never inf/NaN)."""
    if elapsed_s <= 0 or n_rows <= 0:
        return 0.0
    return n_rows / elapsed_s
