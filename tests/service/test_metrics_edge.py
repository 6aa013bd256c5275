"""Latency-percentile edge cases: NaN-free sentinels, pinned.

The regression this guards: naive percentile code over an empty or
single-tick window yields NaN (``np.percentile([])``) or interpolated
values no sample ever had.  The service metrics path contracts instead:

- empty window -> ``count == 0`` and the documented ``0.0`` sentinel
  (:data:`repro.obs.metrics.EMPTY_SENTINEL`) for mean, max and
  every percentile — never NaN, always JSON-round-trippable;
- single-sample window -> that sample, exactly, for every percentile
  (nearest-rank of one value);
- non-finite samples are excluded from statistics but counted in
  ``dropped`` so the accounting stays exact.
"""

import json
import math

import pytest

from repro.obs.metrics import EMPTY_SENTINEL, latency_summary, nearest_rank
from repro.service import DecisionLatencyTracker, rows_per_second


def _assert_nan_free(summary):
    for key, value in summary.items():
        assert math.isfinite(value), f"{key} is not finite: {value}"


class TestEmptyWindow:
    def test_empty_summary_is_sentinel_not_nan(self):
        summary = latency_summary([])
        assert summary["count"] == 0
        for key in ("mean", "max", "p50", "p90", "p99"):
            assert summary[key] == EMPTY_SENTINEL
        _assert_nan_free(summary)
        # The sentinel contract exists so this round-trips:
        assert json.loads(json.dumps(summary)) == summary

    def test_all_nonfinite_window_is_empty(self):
        summary = latency_summary([float("nan"), float("inf")])
        assert summary["count"] == 0
        assert summary["dropped"] == 2
        assert summary["p99"] == EMPTY_SENTINEL
        _assert_nan_free(summary)

    def test_empty_tracker(self):
        tracker = DecisionLatencyTracker()
        summary = tracker.summary()
        assert summary["count"] == 0
        _assert_nan_free(summary)


class TestSingleSample:
    def test_single_value_is_every_percentile(self):
        summary = latency_summary([0.0042])
        assert summary["count"] == 1
        for key in ("mean", "max", "p50", "p90", "p99"):
            assert summary[key] == pytest.approx(0.0042)
        _assert_nan_free(summary)


class TestNearestRank:
    def test_matches_definition(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert nearest_rank(values, 50.0) == 2.0
        assert nearest_rank(values, 99.0) == 4.0
        assert nearest_rank(values, 0.0) == 1.0
        assert nearest_rank(values, 100.0) == 4.0

    def test_every_reported_quantile_was_observed(self):
        values = sorted(v * 0.001 for v in range(1, 18))
        summary = latency_summary(values)
        for key in ("p50", "p90", "p99", "max"):
            assert summary[key] in values

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="percentile"):
            nearest_rank([1.0], 101.0)


class TestTrackerAccounting:
    def test_nonfinite_recorded_but_dropped_from_stats(self):
        tracker = DecisionLatencyTracker()
        tracker.record(0.002)
        tracker.record(float("nan"))
        summary = tracker.summary()
        assert summary["count"] == 1
        assert summary["dropped"] == 1


class TestRowsPerSecond:
    def test_zero_elapsed_guard(self):
        assert rows_per_second(100, 0.0) == 0.0
        assert rows_per_second(0, 1.0) == 0.0
        assert rows_per_second(100, 2.0) == 50.0
