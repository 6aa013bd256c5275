"""The batched histogram record is the one-at-a-time record, exactly.

``Histogram.record_many`` fills a histogram from an array; for any
stream cut into any batches it must leave ``merge_key()`` (buckets,
count, the exact rational sum, min, max, non-finite count), ``total``
(that sum rounded once) and the first-seen ``min``/``max`` — signed
zeros included — equal to recording one value at a time.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.aggregate import LATENCY_BOUNDS, SCORE_BOUNDS
from repro.obs.metrics import Histogram
from tests.identity import canonical

VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, 8.0, 0.125]),
    st.floats(min_value=-1.0, max_value=10.0),
)
BOUNDS = st.sampled_from([SCORE_BOUNDS, LATENCY_BOUNDS, (0.0,), (-1.0, 1.0)])


def state(hist: Histogram) -> tuple:
    return canonical((hist.merge_key(), hist.total, hist.min, hist.max))


class TestRecordMany:
    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(VALUES, max_size=120),
        cuts=st.lists(st.integers(0, 120), max_size=6),
        bounds=BOUNDS,
    )
    def test_batches_equal_one_at_a_time(self, values, cuts, bounds):
        one = Histogram(bounds)
        for value in values:
            one.record(value)
        batched = Histogram(bounds)
        edges = sorted({0, len(values), *(c for c in cuts if c < len(values))})
        for lo, hi in zip(edges, edges[1:]):
            batched.record_many(np.array(values[lo:hi], dtype=float))
        assert state(batched) == state(one)
        assert batched.count == one.count
        assert batched.nonfinite == one.nonfinite

    def test_ties_keep_the_first_seen_value(self):
        for values in ([0.0, -0.0], [-0.0, 0.0], [1.0, -0.0, 0.0, -0.0]):
            one = Histogram(SCORE_BOUNDS)
            for value in values:
                one.record(value)
            batched = Histogram(SCORE_BOUNDS)
            batched.record_many(np.array(values))
            assert (repr(batched.min), repr(batched.max)) == (
                repr(one.min), repr(one.max)
            )

    def test_extreme_magnitudes_sum_exactly(self):
        values = [1e308, 5e-324, -1e308, 2.0**-1074, 1.0]
        hist = Histogram(SCORE_BOUNDS)
        hist.record_many(np.array(values))
        one = Histogram(SCORE_BOUNDS)
        for value in values:
            one.record(value)
        assert hist.merge_key() == one.merge_key()
        assert math.isfinite(hist.mean)

    @pytest.mark.parametrize(
        "values",
        [
            np.random.default_rng(3).uniform(1.5, 2.0, 3000),
            np.full(1025, np.nextafter(2.0, 0.0)),
            -np.full(2049, np.nextafter(2.0, 0.0)),
        ],
        ids=["3000-in-[1.5,2)", "1025-largest-below-2", "2049-negated"],
    )
    def test_more_than_1024_values_sharing_one_exponent(self, values):
        """One binary exponent's mantissas sum past int64 beyond 1,024
        values; the batch must still sum them exactly."""
        assert len(set(np.frexp(values)[1].tolist())) == 1
        one = Histogram(SCORE_BOUNDS)
        for value in values:
            one.record(value)
        batched = Histogram(SCORE_BOUNDS)
        batched.record_many(values)
        assert state(batched) == state(one)

    def test_subnormals_to_1e308_in_one_batch(self):
        rng = np.random.default_rng(4)
        magnitudes = np.concatenate([
            [5e-324, 2.0**-1074 * 3, 1e-310, 2.2250738585072014e-308, 1e308],
            np.logspace(-323, 308, 2000),
        ])
        values = magnitudes * rng.choice([-1.0, 1.0], len(magnitudes))
        values = np.concatenate([values, [0.0, -0.0, np.nan, np.inf]])
        rng.shuffle(values)
        one = Histogram(LATENCY_BOUNDS)
        for value in values:
            one.record(value)
        batched = Histogram(LATENCY_BOUNDS)
        batched.record_many(values)
        assert state(batched) == state(one)
        assert batched.nonfinite == one.nonfinite == 2
