"""The shard-queue ingest against its per-board-queue spec.

:class:`repro.service.ingest.ShardIngest` fronts a shard with one
bounded queue whose frames carry the shard's (boards × features)
matrix; :class:`tests.service.per_board_ingest.PerBoardShardIngest` is
the one-queue-per-board front it replaced.  Through random
produce/assemble schedules (queue capacity, shed policy, inflight depth,
which fleet members the shard holds) both must return the same sheds,
rows and frames, keep the same counters and trace the same
``QueueShed`` stream — and the counters must conserve frames with no
tick ever reordered.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.detect import ResidualCusumDetector
from repro.obs import InMemorySink, Tracer
from repro.obs.metrics import latency_summary
from repro.service import (
    AsyncFleetService,
    DecisionLatencyTracker,
    LiveBoardSource,
    ReplaySource,
    ServiceConfig,
    ShardIngest,
    ShedPolicy,
    make_members,
)
from tests.service.per_board_ingest import PerBoardShardIngest


def assert_assembled_equal(got, want, board_ids):
    (rows, frames), (want_rows, want_frames) = got, want
    assert rows.tobytes() == want_rows.tobytes()
    assert list(frames) == list(want_frames)
    if frames:
        # One frame under every board id (the ledger reads the first).
        assert list(frames) == board_ids
        frame = next(iter(frames.values()))
        assert all(f is frame for f in frames.values())
        for i, want_frame in enumerate(want_frames.values()):
            assert (frame.tick, frame.t) == (want_frame.tick, want_frame.t)
            assert frame.row[i].tobytes() == want_frame.row.tobytes()


def drive(source_factory, indices, capacity, policy, inflight, choices,
          n_ticks):
    """Run both ingests through one schedule; returns the shard ingest
    and every tick whose frame was assembled."""
    ids = [f"board-{i:03d}" for i in indices]
    sinks = InMemorySink(), InMemorySink()
    got = ShardIngest(
        1, indices, ids, source_factory(), capacity=capacity,
        policy=policy, tracer=Tracer(sinks[0]),
    )
    want = PerBoardShardIngest(
        1, indices, ids, source_factory(), capacity=capacity,
        policy=policy, tracer=Tracer(sinks[1]),
    )
    produced = assembled = 0
    scored_ticks = []
    for choice in choices:
        ahead = produced - assembled
        if produced < n_ticks and ahead < inflight and (
            choice or ahead == 0
        ):
            t = 0.5 * produced
            assert got.produce(produced, t) == want.produce(produced, t)
            produced += 1
        elif assembled < produced:
            result = got.assemble(assembled)
            assert_assembled_equal(result, want.assemble(assembled), ids)
            if result[1]:
                scored_ticks.append(assembled)
            assembled += 1
        counters = got.counters()
        assert counters == want.counters()
        assert counters["arrivals"] == (
            counters["processed"] + counters["shed"] + counters["queued"]
        )
        assert sinks[0].events == sinks[1].events
    assert scored_ticks == sorted(set(scored_ticks))
    return got, scored_ticks


class TestReplayIngest:
    @settings(max_examples=150, deadline=None)
    @given(
        n_fleet=st.integers(1, 7),
        n_shards=st.integers(1, 3),
        capacity=st.integers(1, 4),
        policy=st.sampled_from(list(ShedPolicy)),
        inflight=st.integers(1, 7),
        choices=st.lists(st.booleans(), min_size=1, max_size=80),
        seed=st.integers(0, 2**16),
    )
    def test_shard_queue_equals_per_board_queues(
        self, n_fleet, n_shards, capacity, policy, inflight, choices, seed
    ):
        n_ticks = 20
        tensor = np.random.default_rng(seed).normal(size=(n_ticks, n_fleet, 3))
        tensor[tensor > 1.5] = np.nan  # dropouts ride along unchanged
        shard = min(1, n_shards - 1)
        indices = list(range(n_fleet))[shard::n_shards] or [0]
        drive(
            lambda: ReplaySource(tensor), indices, capacity, policy,
            inflight, choices, n_ticks,
        )

    def test_shed_trace_is_per_board_in_board_order(self):
        sink = InMemorySink()
        ingest = ShardIngest(
            0, [2, 0], ["c", "a"], ReplaySource(np.ones((3, 3, 2))),
            capacity=1, policy=ShedPolicy.DROP_OLDEST, tracer=Tracer(sink),
        )
        assert ingest.produce(0, 0.0) == 0
        assert ingest.produce(1, 0.5) == 2
        assert [(e.board_id, e.tick, e.t, e.policy, e.queue_len)
                for e in sink.events] == [
            ("c", 0, 0.0, "drop-oldest", 1), ("a", 0, 0.0, "drop-oldest", 1),
        ]

    def test_counters_are_queue_counts_times_boards(self):
        ingest = ShardIngest(
            0, [0, 1, 2], ["a", "b", "c"], ReplaySource(np.ones((4, 3, 2))),
            capacity=2, policy=ShedPolicy.REJECT,
        )
        for tick in range(4):
            ingest.produce(tick, float(tick))
        ingest.assemble(0)
        queue = ingest.queue
        assert (queue.arrivals, queue.processed, queue.shed, len(queue)) == (
            4, 1, 2, 1
        )
        assert ingest.counters() == {
            "arrivals": 12, "processed": 3, "shed": 6, "queued": 3,
        }


class SpySource(ReplaySource):
    """Counts the calls that sample a tick, and stamps when they ran."""

    def __init__(self, rows):
        super().__init__(rows)
        self.calls = {"row": 0, "gather": 0}
        self.sampled_pc = []

    def row(self, index, tick, t):
        self.calls["row"] += 1
        return super().row(index, tick, t)

    def gather(self, indices, tick, t):
        self.calls["gather"] += 1
        self.sampled_pc.append(time.perf_counter())
        return super().gather(indices, tick, t)


class TestSampling:
    def test_replay_tick_is_one_gather_stamped_before_sampling(self):
        source = SpySource(np.ones((3, 4, 2)))
        ingest = ShardIngest(0, [0, 1, 2, 3], list("abcd"), source)
        for tick in range(3):
            ingest.produce(tick, float(tick))
        assert source.calls == {"row": 0, "gather": 3}
        for tick, sampled in enumerate(source.sampled_pc):
            _, frames = ingest.assemble(tick)
            assert frames["a"].enqueued_pc <= sampled

    def test_live_boards_sample_each_board_through_row(self):
        calls = []

        class LiveSpy(LiveBoardSource):
            def row(self, index, tick, t):
                calls.append((index, tick))
                return super().row(index, tick, t)

        ingest, scored = drive(
            lambda: LiveSpy(make_members(3, seed=870)), [0, 1, 2],
            capacity=2, policy=ShedPolicy.DROP_OLDEST, inflight=3,
            choices=[True, True, True, False, False, False] * 2, n_ticks=6,
        )
        # Each tick: the shard ingest's three rows, then the spec's three.
        assert calls == [
            (index, tick)
            for tick in range(6) for _ in range(2) for index in range(3)
        ]
        assert scored == [1, 2, 4, 5] and ingest.counters()["shed"] == 6


class TestLatencyPerTick:
    def test_weighted_summary_is_the_spelled_out_samples(self):
        tracker = DecisionLatencyTracker()
        recorded = [(0.003, 4), (0.001, 2), (math.nan, 1), (0.002, 3)]
        for latency, n_frames in recorded:
            tracker.record(latency, n_frames)
        got = tracker.summary()
        want = latency_summary([
            latency for latency, n in recorded for _ in range(n)
        ])
        assert tracker.count == 10
        assert got.keys() == want.keys()
        assert got.pop("mean") == pytest.approx(want.pop("mean"))
        assert got == want

    def test_service_records_one_latency_per_decided_tick(self, monkeypatch):
        calls = []
        record = DecisionLatencyTracker.record

        def spy(self, latency_s, n_frames=1):
            calls.append(n_frames)
            record(self, latency_s, n_frames)

        monkeypatch.setattr(DecisionLatencyTracker, "record", spy)
        detector = ResidualCusumDetector(h_sigma=40.0).fit(
            np.random.default_rng(0).normal(size=(64, 8))
        )
        service = AsyncFleetService(
            detector, make_members(5, seed=880),
            service=ServiceConfig(
                n_shards=2, queue_capacity=1, max_inflight_ticks=3
            ),
            source=ReplaySource(np.random.default_rng(2).normal(size=(9, 5, 8))),
        )
        report = service.run(duration_s=9.0, rate_hz=1.0)
        assert report.rows_shed > 0
        # Shards of 3 and 2 boards; a shed tick decides no frame.
        assert set(calls) == {3, 2}
        assert sum(calls) == report.rows_processed == report.latency["count"]
