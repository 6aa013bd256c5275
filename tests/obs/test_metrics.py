"""Metrics tests: exact histograms and the one event fold as a sink."""

import pytest

from repro.errors import ConfigError
from repro.obs.aggregate import LATENCY_BOUNDS, Rollup
from repro.obs.events import (
    FleetDecision,
    GoldenCacheLookup,
    LadderAttemptEvent,
    RecoveryDone,
    Tracer,
    TrialEnd,
)
from repro.obs.metrics import Histogram

BOUNDS = (1.0, 2.0, 3.0, 4.0)


class TestInstruments:
    def test_histogram_exact_when_small(self):
        h = Histogram(buckets=BOUNDS)
        for v in [1.0, 2.0, 3.0, 4.0]:
            h.record(v)
        assert h.count == 4
        assert h.mean == 2.5
        assert h.min == 1.0 and h.max == 4.0
        assert h.percentile(50) in (2.0, 3.0)

    def test_histogram_bounded_memory_keeps_exact_aggregates(self):
        h = Histogram(buckets=tuple(float(b) for b in range(100, 1000, 100)))
        for v in range(1000):
            h.record(float(v))
        assert h.count == 1000
        assert h.total == sum(range(1000))
        assert h.min == 0.0 and h.max == 999.0
        # One integer per bucket, whatever the volume.
        assert len(h.bucket_counts) <= 16

    def test_histogram_validation(self):
        with pytest.raises(ConfigError):
            Histogram(buckets=())
        with pytest.raises(ConfigError):
            Histogram(buckets=BOUNDS).percentile(101)

    def test_empty_histogram_summary(self):
        assert Histogram(buckets=BOUNDS).summary() == {"count": 0}


class TestRegistry:
    def test_snapshot_is_json_ready_and_sorted(self):
        rollup = Rollup()
        rollup.inc("z")
        rollup.inc("a", 2)
        rollup.observe("lat", 0.5, LATENCY_BOUNDS)
        snap = rollup.snapshot()
        assert list(snap["counters"]) == ["a", "z"]
        assert snap["counters"] == {"a": 2, "z": 1}
        assert snap["histograms"]["lat"]["count"] == 1


class TestMetricsSink:
    """A :class:`Rollup` attached to a tracer folds the engine's events."""

    def test_folds_engine_events(self):
        sink = Rollup()
        tracer = Tracer(sink)
        tracer.emit(GoldenCacheLookup(hit=False, instructions=0))
        tracer.emit(GoldenCacheLookup(hit=True, instructions=100))
        tracer.emit(TrialEnd(trial=0, outcome="benign", cycles=10))
        tracer.emit(TrialEnd(trial=1, outcome="crash", cycles=12))
        tracer.emit(LadderAttemptEvent(
            trial=1, rung="retry", attempt=0, success=True, cycles=9,
            backoff_s=0.0, latency_s=9e-9,
        ))
        tracer.emit(RecoveryDone(
            trial=1, outcome="crash", recovered=True, rung="retry",
            attempts=1, latency_s=9e-9, wasted_cycles=12,
            persistence="transient",
        ))
        snap = sink.snapshot()
        assert snap["counters"]["trials.benign"] == 1
        assert snap["counters"]["trials.crash"] == 1
        assert snap["counters"]["golden_cache.hits"] == 1
        assert snap["counters"]["golden_cache.misses"] == 1
        assert snap["counters"]["ladder.attempts.retry"] == 1
        assert snap["counters"]["recovery.rung.retry"] == 1
        assert snap["histograms"]["recovery.latency_s"]["count"] == 1

    def test_folds_fleet_decisions(self):
        sink = Rollup()
        tracer = Tracer(sink)
        tracer.emit(FleetDecision(
            t=0.0, n_boards=4, n_scored=0, n_anomalous=0, alarms="",
            quarantined="", released="", max_score=0.0, warming_up=True,
        ))
        tracer.emit(FleetDecision(
            t=6.0, n_boards=4, n_scored=4, n_anomalous=1, alarms="b2",
            quarantined="", released="", max_score=17.5,
        ))
        tracer.emit(FleetDecision(
            t=6.1, n_boards=4, n_scored=3, n_anomalous=0, alarms="",
            quarantined="b0,b1", released="b3", max_score=2.0,
        ))
        snap = sink.snapshot()
        assert snap["counters"]["fleet.scored"] == 7
        assert snap["counters"]["fleet.alarms"] == 1
        assert snap["counters"]["fleet.quarantines"] == 2
        assert snap["counters"]["fleet.releases"] == 1
        # Per-tick figures come from the trace index's fleet replay
        # (tests/obs/test_export.py), not from a per-decision fold.
        assert "fleet.ticks" not in snap["counters"]
        assert snap["histograms"] == {}

    def test_failed_recovery_counts_separately(self):
        sink = Rollup()
        Tracer(sink).emit(RecoveryDone(
            trial=0, outcome="hang", recovered=False, rung=None,
            attempts=4, latency_s=1.0, wasted_cycles=999,
            persistence="stuck",
        ))
        snap = sink.snapshot()
        assert snap["counters"]["recovery.failed"] == 1
        assert "recovery.recovered" not in snap["counters"]
        assert not any(
            name.startswith("recovery.rung.") for name in snap["counters"]
        )
        # recovery.latency_s covers every recovery, failed ones included.
        assert snap["histograms"]["recovery.latency_s"]["count"] == 1
        assert snap["histograms"]["recovery.wasted_cycles"]["max"] == 999
