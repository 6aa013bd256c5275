"""Fixed-bucket histograms and nearest-rank summaries of raw samples.

A :class:`Histogram` lands every observation in one of a predeclared
set of buckets.  Counts are integers and the running sum is kept as an
exact rational, so two histograms over disjoint shards of a stream
:meth:`~Histogram.merge` into *exactly* the histogram of the combined
stream — the property :class:`repro.obs.aggregate.Rollup`, the one
metrics registry, builds its shard-mergeable rollups on.  Memory is
bounded by the bucket count, and percentiles resolve to bucket upper
bounds (clamped to the observed min/max), never degrading with volume.

Where every raw sample is at hand (a trace's recovery latencies, a
detector's scores, the service's decision latencies),
:func:`latency_summary` summarises them exactly instead.  Percentiles
use the nearest-rank definition (ceil(p/100 * n)), so every reported
quantile is an actually-observed sample, and the edge cases are
NaN-free by contract:

- an **empty** summary reports ``count == 0`` and the explicit
  ``0.0`` sentinel for mean/max and every percentile (consumers must
  key off ``count``, not the values);
- a **single-sample** summary reports that sample for every percentile
  (nearest-rank of one value is that value — no interpolation, no NaN).

``tests/service/test_metrics_edge.py`` pins both contracts.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, repeat
from math import ceil, inf, isfinite
from operator import add, lshift
from typing import Sequence

import numpy as np

from repro.errors import ConfigError

#: Mantissas one int64 sum may take: 2**10 values below 2**53 sum below
#: 2**63, so :meth:`Histogram.record_many` never overflows a group.
_INT64_GROUP = 1 << 10


class Histogram:
    """Exact fixed-bucket distribution of observations.

    ``buckets`` is a strictly increasing sequence of upper bounds; every
    observation increments one integer bucket count (the last implicit
    bucket is +inf overflow), the sum is tracked as an exact rational,
    and two histograms with the same bounds merge exactly.  Non-finite
    observations are tallied in ``nonfinite`` and excluded from the
    buckets, sum and extrema so aggregates stay meaningful.

    Attributes:
        count: finite observations recorded.
        nonfinite: non-finite observations seen.
    """

    def __init__(self, buckets: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ConfigError("bucket bounds must be non-empty")
        if any(not isfinite(b) for b in bounds):
            raise ConfigError("bucket bounds must be finite")
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ConfigError(
                f"bucket bounds must be strictly increasing: {bounds}"
            )
        self.bounds = bounds
        # One count per bound ("value <= bound") plus +inf overflow.
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")
        self.nonfinite = 0
        self._exact_total = Fraction(0)
        self._edges = np.array(bounds)

    def record(self, value: float) -> None:
        value = float(value)
        if not isfinite(value):
            self.nonfinite += 1
            return
        self.count += 1
        self._exact_total += Fraction(value)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.bucket_counts[bisect_left(self.bounds, value)] += 1

    def record_many(self, values: np.ndarray) -> None:
        """Record ``values`` in order, leaving exactly the state that
        :meth:`record` on each value in turn leaves.

        A call costs a fixed few dozen numpy operations, so it pays on
        large batches (the fleet scorer folds many ticks' scores into
        one call).  Every field is an order-free fold except
        ``min``/``max``, which keep the first value seen on ties
        (``-0.0`` and ``0.0`` compare equal, and whichever came first
        stays).  Bucket counts are a ``bincount`` of the
        ``searchsorted`` indices, added to the Python ints of
        ``bucket_counts``.  The exact sum takes each finite value's
        53-bit integer mantissa and sums them in int64, grouped by
        binary exponent and at most :data:`_INT64_GROUP` to a group, so
        no group sum overflows; the few group sums are then shifted onto
        the batch's smallest exponent as Python ints.
        """
        values = np.asarray(values, dtype=float).ravel()
        finite = values[np.isfinite(values)]
        self.nonfinite += len(values) - len(finite)
        if not len(finite):
            return
        self.count += len(finite)
        fraction, exponent = np.frexp(finite)
        order = np.argsort(exponent)
        exponent = exponent[order]
        # A group starts at every new exponent and every _INT64_GROUP-th
        # value, so each lies inside one exponent's run.
        starts = np.union1d(
            np.flatnonzero(np.diff(exponent)) + 1,
            np.arange(0, len(exponent), _INT64_GROUP),
        )
        mantissas = (fraction[order] * 2.0**53).astype(np.int64)
        sums = np.add.reduceat(mantissas, starts).tolist()
        lowest = int(exponent[0])
        exact = sum(map(lshift, sums, (exponent[starts] - lowest).tolist()))
        lowest -= 53
        self._exact_total += (
            Fraction(exact << lowest) if lowest >= 0
            else Fraction(exact, 1 << -lowest)
        )
        low = float(finite[np.argmin(finite)])
        if low < self.min:
            self.min = low
        high = float(finite[np.argmax(finite)])
        if high > self.max:
            self.max = high
        counts = np.bincount(
            np.searchsorted(self._edges, finite),
            minlength=len(self.bucket_counts),
        )
        self.bucket_counts[:] = map(add, self.bucket_counts, counts.tolist())

    @property
    def total(self) -> float:
        """Sum of all finite observations: the exact sum rounded once,
        or ±inf beyond the float range."""
        try:
            return float(self._exact_total)
        except OverflowError:
            return inf if self._exact_total > 0 else -inf

    @property
    def mean(self) -> float:
        if not self.count:
            return 0.0
        return float(self._exact_total / self.count)

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram.

        Exactness contract: for any partition of a stream into shards,
        recording each shard into its own histogram and merging gives
        bucket counts, count, sum, min and max *identical* to recording
        the whole stream into one histogram — integer bucket counts and
        rational sums are associative and commutative, floats summed in
        stream order are not.
        """
        if self.bounds != other.bounds:
            raise ConfigError(
                f"cannot merge histograms with different bucket bounds: "
                f"{self.bounds} != {other.bounds}"
            )
        self.count += other.count
        self.nonfinite += other.nonfinite
        self._exact_total += other._exact_total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        for i, n in enumerate(other.bucket_counts):
            self.bucket_counts[i] += n

    def merge_key(self) -> tuple:
        """Everything merge-equality compares (exact, order-free state)."""
        return (
            self.bounds, tuple(self.bucket_counts), self.count,
            self._exact_total, self.min, self.max, self.nonfinite,
        )

    def percentile(self, q: float) -> float:
        """Percentile at bucket resolution.

        Resolves to the upper bound of the bucket holding the rank
        ``round(q/100 * (count - 1))``, clamped to the observed
        ``[min, max]`` so single-bucket streams stay sane.
        """
        if not 0.0 <= q <= 100.0:
            raise ConfigError(f"percentile must be in [0, 100], got {q}")
        if not self.count:
            return 0.0
        rank = min(self.count - 1, int(round(q / 100.0 * (self.count - 1))))
        seen = 0
        for i, n in enumerate(self.bucket_counts):
            seen += n
            if rank < seen:
                edge = self.bounds[i] if i < len(self.bounds) else self.max
                return min(max(edge, self.min), self.max)
        return self.max  # pragma: no cover - counts always reach count

    def summary(self) -> dict[str, float]:
        if not self.count:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }


#: Value reported for mean/max/percentiles of an empty summary.  Chosen
#: over NaN so summaries stay JSON-round-trippable and comparable; the
#: paired ``count == 0`` disambiguates "no data" from "zero latency".
EMPTY_SENTINEL = 0.0

#: Percentiles every summary reports.
DEFAULT_PERCENTILES = (50.0, 90.0, 99.0)


def nearest_rank(
    sorted_values: list[float], p: float, ranks: list[int] | None = None
) -> float:
    """Nearest-rank percentile over pre-sorted values.

    ``ranks``, when given, are the running sample counts of
    ``sorted_values`` (value ``i`` stands for ``ranks[i] - ranks[i-1]``
    samples).  Returns :data:`EMPTY_SENTINEL` for an empty input; for a
    single value returns that value for every ``p``.
    """
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile out of range: {p}")
    n = len(sorted_values) if ranks is None else (ranks[-1] if ranks else 0)
    if n == 0:
        return EMPTY_SENTINEL
    rank = max(ceil(p / 100.0 * n), 1)
    index = rank - 1 if ranks is None else bisect_left(ranks, rank)
    return float(sorted_values[index])


def latency_summary(
    values: list[float],
    percentiles: tuple[float, ...] = DEFAULT_PERCENTILES,
    counts: list[int] | None = None,
) -> dict[str, float]:
    """NaN-free summary of raw samples (latencies in seconds, scores).

    ``counts[i]``, when given, is how many samples ``values[i]`` stands
    for (the service records one latency per tick for every frame the
    tick decided): the summary is that of the samples spelled out.
    Non-finite samples are excluded from the statistics but reported in
    ``dropped`` so the accounting stays exact.
    """
    pairs = sorted(
        (value, n)
        for value, n in zip(values, repeat(1) if counts is None else counts)
        if isfinite(value)
    )
    finite = [value for value, _ in pairs]
    ranks = list(accumulate(n for _, n in pairs))
    n_finite = ranks[-1] if ranks else 0
    n_all = len(values) if counts is None else sum(counts)
    summary: dict[str, float] = {
        "count": n_finite,
        "dropped": n_all - n_finite,
    }
    if finite:
        summary["mean"] = sum(value * n for value, n in pairs) / n_finite
        summary["max"] = finite[-1]
    else:
        summary["mean"] = EMPTY_SENTINEL
        summary["max"] = EMPTY_SENTINEL
    for p in percentiles:
        name = f"p{int(p)}" if float(p).is_integer() else f"p{p}"
        summary[name] = nearest_rank(finite, p, ranks)
    return summary
