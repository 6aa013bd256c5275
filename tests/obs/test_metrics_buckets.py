"""Fixed-bucket histograms: exact merges, no truncation at any volume."""

import math

import pytest

from repro.errors import ConfigError
from repro.obs.metrics import Histogram

BOUNDS = (1.0, 2.0, 4.0, 8.0)


class TestBucketMode:
    def test_records_land_in_buckets(self):
        h = Histogram(buckets=BOUNDS)
        for v in (0.5, 1.0, 1.5, 3.0, 100.0):
            h.record(v)
        assert h.bounds == BOUNDS
        assert h.count == 5
        # value <= bound buckets plus the +inf overflow slot.
        assert h.bucket_counts == [2, 1, 1, 0, 1]
        assert h.min == 0.5 and h.max == 100.0

    def test_never_truncates(self):
        h = Histogram(buckets=BOUNDS)
        for i in range(100_000):
            h.record(float(i % 10))
        # Every observation is still counted, at bucket resolution.
        assert sum(h.bucket_counts) == h.count == 100_000
        assert h.summary()["count"] == 100_000

    def test_nonfinite_counted_not_recorded(self):
        h = Histogram(buckets=BOUNDS)
        h.record(float("nan"))
        h.record(float("inf"))
        h.record(1.0)
        assert h.count == 1
        assert h.nonfinite == 2

    def test_percentile_clamped_to_observed_range(self):
        h = Histogram(buckets=BOUNDS)
        h.record(1.5)
        # Single observation: every percentile is that value's envelope,
        # clamped so p0 is never below min nor p100 above max.
        assert h.percentile(0) >= h.min
        assert h.percentile(100) <= h.max

    def test_mean_is_exact(self):
        h = Histogram(buckets=BOUNDS)
        # 0.1 is not a dyadic rational; exact Fraction accumulation
        # still averages back to the true float mean.
        for _ in range(10):
            h.record(0.1)
        assert h.mean == pytest.approx(0.1, abs=0.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            Histogram(buckets=())
        with pytest.raises(ConfigError):
            Histogram(buckets=(1.0, 1.0))
        with pytest.raises(ConfigError):
            Histogram(buckets=(2.0, 1.0))
        with pytest.raises(ConfigError):
            Histogram(buckets=(1.0, float("inf")))


class TestBucketMerge:
    def test_merge_equals_single_stream(self):
        values = [0.3 * i for i in range(50)]
        whole = Histogram(buckets=BOUNDS)
        for v in values:
            whole.record(v)
        a = Histogram(buckets=BOUNDS)
        b = Histogram(buckets=BOUNDS)
        # Interleaved partition: merge must not depend on order.
        for i, v in enumerate(values):
            (a if i % 2 else b).record(v)
        a.merge(b)
        assert a.merge_key() == whole.merge_key()
        assert a.percentile(50) == whole.percentile(50)
        assert a.mean == whole.mean

    def test_merge_requires_same_bounds(self):
        a = Histogram(buckets=BOUNDS)
        b = Histogram(buckets=(1.0, 2.0))
        with pytest.raises(ConfigError):
            a.merge(b)

    def test_merge_carries_nonfinite_and_extrema(self):
        a = Histogram(buckets=BOUNDS)
        b = Histogram(buckets=BOUNDS)
        a.record(1.0)
        b.record(math.inf)
        b.record(9.0)
        a.merge(b)
        assert a.nonfinite == 1
        assert a.min == 1.0 and a.max == 9.0
        assert a.count == 2
