"""Aggregation tests: the merge-equality contract, the fold, fleet replay.

The property that matters: for ANY partition of an event stream into
shards, merging the per-shard aggregates equals the global fold exactly
— checked here with hypothesis over random event streams and random
partitions.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.obs.aggregate import (
    CYCLE_BOUNDS,
    LATENCY_BOUNDS,
    SCORE_BOUNDS,
    BoardHealth,
    FleetReplay,
    Rollup,
    aggregate_events,
    linear_bounds,
    log_bounds,
)
from repro.obs.events import (
    BlockTransition,
    CheckpointTaken,
    DetectorDecision,
    FleetDecision,
    GoldenCacheLookup,
    LadderAttemptEvent,
    RecoveryDone,
    TrialEnd,
    WatchdogFire,
)

OUTCOMES = ("benign", "sdc", "crash", "hang", "detected")
RUNGS = ("retry", "restore", "restart")
BOARDS = ("b-0", "b-1", "b-2")


# -- event stream strategy -----------------------------------------------------

_floats = st.floats(
    min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False
)

_trial_end = st.builds(
    TrialEnd,
    trial=st.integers(0, 500),
    outcome=st.sampled_from(OUTCOMES),
    cycles=st.integers(0, 10**9),
    rel_error=_floats,
)
_ladder = st.builds(
    LadderAttemptEvent,
    trial=st.integers(0, 500),
    rung=st.sampled_from(RUNGS),
    attempt=st.integers(0, 5),
    success=st.booleans(),
    cycles=st.integers(0, 10**6),
    backoff_s=_floats,
    latency_s=_floats,
)
_recovery = st.builds(
    RecoveryDone,
    trial=st.integers(0, 500),
    outcome=st.sampled_from(OUTCOMES),
    recovered=st.booleans(),
    rung=st.sampled_from(RUNGS),
    attempts=st.integers(0, 5),
    latency_s=_floats,
    wasted_cycles=st.integers(0, 10**6),
    persistence=st.sampled_from(("transient", "persistent")),
)
_detector = st.builds(
    DetectorDecision,
    t=_floats,
    score=_floats,
    threshold=_floats,
    anomalous=st.booleans(),
    hits=st.integers(0, 20),
    window_len=st.integers(0, 64),
    window_full=st.booleans(),
    alarm=st.booleans(),
    warming_up=st.booleans(),
)


def _ids(draw_from):
    return st.sets(st.sampled_from(draw_from), max_size=len(draw_from)).map(
        lambda s: ",".join(sorted(s))
    )


_fleet = st.builds(
    FleetDecision,
    t=_floats,
    n_boards=st.just(len(BOARDS)),
    n_scored=st.integers(0, len(BOARDS)),
    n_anomalous=st.integers(0, len(BOARDS)),
    alarms=_ids(BOARDS),
    quarantined=_ids(BOARDS),
    released=_ids(BOARDS),
    max_score=_floats,
    warming_up=st.booleans(),
)

_cache = st.builds(
    GoldenCacheLookup, hit=st.booleans(), instructions=st.integers(0, 10**6)
)
_checkpoint = st.builds(
    CheckpointTaken,
    trial=st.integers(0, 500),
    instructions=st.integers(0, 10**6),
    cycles=st.integers(0, 10**6),
    taken=st.integers(0, 100),
)
_watchdog = st.builds(
    WatchdogFire, trial=st.integers(0, 500), budget=st.integers(1, 10**6)
)
_block = st.builds(
    BlockTransition, func=st.sampled_from(("f", "g")),
    block=st.sampled_from(("entry", "loop")),
)

_events = st.lists(
    st.one_of(
        _trial_end, _ladder, _recovery, _detector, _fleet,
        _cache, _checkpoint, _watchdog, _block,
    ),
    max_size=60,
)


@st.composite
def _partitioned_stream(draw):
    """An event stream plus a random partition of it into shards."""
    events = draw(_events)
    n_shards = draw(st.integers(1, 5))
    assignment = draw(
        st.lists(
            st.integers(0, n_shards - 1),
            min_size=len(events), max_size=len(events),
        )
    )
    shards = [[] for _ in range(n_shards)]
    for event, shard in zip(events, assignment):
        shards[shard].append(event)
    return events, shards


class TestMergeEquality:
    @given(_partitioned_stream())
    @settings(max_examples=80, deadline=None)
    def test_sharded_merge_equals_global(self, case):
        events, shards = case
        merged = Rollup()
        for shard in shards:
            merged.merge(aggregate_events(shard))
        assert merged == aggregate_events(events)

    @given(_events)
    @settings(max_examples=40, deadline=None)
    def test_fold_is_order_independent(self, events):
        assert aggregate_events(events) == aggregate_events(
            list(reversed(events))
        )

    def test_empty_merge_is_empty(self):
        merged = Rollup()
        merged.merge(aggregate_events([]))
        assert merged == Rollup()


class TestRollup:
    def test_counters_and_histograms_fold(self):
        events = [
            TrialEnd(trial=0, outcome="sdc", cycles=100, rel_error=0.5),
            TrialEnd(trial=1, outcome="benign", cycles=200, rel_error=0.0),
            RecoveryDone(
                trial=0, outcome="sdc", recovered=True, rung="retry",
                attempts=1, latency_s=0.01, wasted_cycles=5,
                persistence="transient",
            ),
        ]
        total = aggregate_events(events)
        assert total.counters["trials.sdc"] == 1
        assert total.counters["trials.benign"] == 1
        assert total.counters["recovery.recovered"] == 1
        assert total.histograms["trial.cycles"].count == 2
        assert total.histograms["recovery.latency_s"].count == 1

    def test_snapshot_shape(self):
        rollup = Rollup()
        rollup.inc("a")
        rollup.observe("lat", 0.1, LATENCY_BOUNDS)
        snap = rollup.snapshot()
        assert snap["counters"] == {"a": 1}
        assert snap["histograms"]["lat"]["count"] == 1


class TestBounds:
    def test_log_bounds_cover_range(self):
        bounds = log_bounds(1e-6, 100.0, per_decade=3)
        assert bounds[0] == 1e-6
        assert bounds[-1] >= 100.0
        assert list(bounds) == sorted(bounds)

    def test_linear_bounds(self):
        bounds = linear_bounds(0.0, 8.0, 4)
        assert bounds == (2.0, 4.0, 6.0, 8.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            log_bounds(0.0, 1.0)
        with pytest.raises(ConfigError):
            log_bounds(2.0, 1.0)
        with pytest.raises(ConfigError):
            linear_bounds(1.0, 1.0, 4)
        with pytest.raises(ConfigError):
            linear_bounds(0.0, 1.0, 0)

    def test_canonical_layouts_are_stable(self):
        # Part of the merge contract: shards derive identical bounds.
        assert LATENCY_BOUNDS == log_bounds(1e-6, 100.0, per_decade=3)
        assert SCORE_BOUNDS == linear_bounds(0.0, 8.0, 64)
        assert CYCLE_BOUNDS == log_bounds(10.0, 1e9, per_decade=3)
        rollup = Rollup()
        rollup.observe("lat", 0.1, LATENCY_BOUNDS)
        assert rollup.histograms["lat"].bounds == LATENCY_BOUNDS


class TestBoardHealth:
    def _decision(self, t, **kwargs):
        base = dict(
            t=t, n_boards=2, n_scored=2, n_anomalous=0, alarms="",
            quarantined="", released="", max_score=0.0, warming_up=False,
        )
        base.update(kwargs)
        return FleetDecision(**base)

    def test_alarm_rate_denominator_excludes_quarantine(self):
        decisions = [
            self._decision(0.0, alarms="b-0"),
            self._decision(1.0, quarantined="b-1"),
            self._decision(2.0),
            self._decision(3.0, released="b-1"),
            self._decision(4.0),
        ]
        health = FleetReplay(decisions).health()
        b0, b1 = health["b-0"], health["b-1"]
        assert b0.alarms == 1
        # b-0 known from t=0: scored on every non-warmup tick.
        assert b0.ticks_scored == 5
        # b-1 scored at t=0, quarantined for ticks 1-2, back for 3-4.
        assert b1.quarantines == 1 and b1.releases == 1
        assert b1.ticks_scored == 3
        assert b0.alarm_rate == pytest.approx(1 / 5)
        assert b1.alarm_rate == 0.0

    def test_warmup_ticks_do_not_count(self):
        decisions = [
            self._decision(0.0, alarms="b-0", warming_up=True),
            self._decision(1.0),
        ]
        replay = FleetReplay(decisions)
        assert replay.health()["b-0"].ticks_scored == 1
        assert (len(replay.ticks), replay.warmup_ticks) == (2, 1)

    def test_interleaved_shards_match_intervals_by_time(self):
        # One decision per shard per tick: shard 0 holds b-1,
        # quarantined over [1, 3), and shard 1 holds b-2.
        shard0 = [
            self._decision(
                t, n_boards=1, n_scored=int(t not in (1.0, 2.0)),
                quarantined="b-1" if t == 1.0 else "",
                released="b-1" if t == 3.0 else "",
            )
            for t in map(float, range(5))
        ]
        shard1 = [
            self._decision(
                t, n_boards=1, n_scored=1, alarms="b-2" if t == 4.0 else "",
                max_score=t,
            )
            for t in map(float, range(5))
        ]
        for decisions in (
            shard0 + shard1, shard1 + shard0, shard1[:3] + shard0 + shard1[3:],
        ):
            replay = FleetReplay(decisions)
            health = replay.health()
            assert health["b-1"].ticks_scored == 3
            assert health["b-2"].ticks_scored == 5
            # Per-tick figures span both shards' decisions.
            assert (len(replay.ticks), replay.n_boards) == (5, 2)
            assert sorted(replay.max_scores()) == [0.0, 1.0, 2.0, 3.0, 4.0]
            rollup = replay.rollup()
            assert rollup.counters == {"fleet.ticks": 5}
            assert rollup.histograms["fleet.max_score"].count == 5

    def test_empty_stream(self):
        replay = FleetReplay()
        assert replay.health() == {} and replay.n_boards == 0
        assert replay.rollup() == Rollup()
        assert BoardHealth(board_id="x").alarm_rate == 0.0
