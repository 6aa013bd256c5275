"""Unit coverage of the service internals the soak test exercises
end-to-end: shard routing, snapshot/restore, the in-process backend,
supervisor bookkeeping, ingestion sources, and config validation.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.errors import ConfigError, ServiceError, ShardCrashed
from repro.detect import FleetConfig, ResidualCusumDetector
from repro.service import (
    AsyncFleetService,
    FleetSupervisor,
    InProcessBackend,
    LiveBoardSource,
    ReplaySource,
    ServiceConfig,
    ShardScorer,
    ShardStepResult,
    make_members,
    record_fleet_telemetry,
    run_replay_reference,
    shard_boards,
    storm_timeline,
)
from repro.service.ingest import ShardIngest


def _detector(d=8):
    detector = ResidualCusumDetector(h_sigma=40.0)
    return detector.fit(np.random.default_rng(0).normal(size=(64, d)))


def _scorer_factory(board_ids, detector=None, **kw):
    detector = detector if detector is not None else _detector()
    def make(shard):
        return ShardScorer(shard, detector, board_ids, FleetConfig(), **kw)
    return make


class TestShardRouting:
    def test_round_robin_balanced(self):
        ids = [f"b{i}" for i in range(10)]
        shards = shard_boards(ids, 4)
        assert [len(s) for s in shards] == [3, 3, 2, 2]
        assert sorted(sum(shards, [])) == sorted(ids)
        assert shards[0] == ["b0", "b4", "b8"]

    def test_clamped_to_fleet_size(self):
        shards = shard_boards(["a", "b"], 8)
        assert shards == [["a"], ["b"]]

    def test_pure_function_of_order(self):
        ids = [f"b{i}" for i in range(7)]
        assert shard_boards(ids, 3) == shard_boards(list(ids), 3)

    def test_validation(self):
        with pytest.raises(ConfigError, match="at least one shard"):
            shard_boards(["a"], 0)
        with pytest.raises(ConfigError, match="empty fleet"):
            shard_boards([], 2)


class TestShardScorer:
    def test_snapshot_restore_roundtrip_is_exact(self):
        detector = _detector()
        rng = np.random.default_rng(5)
        a = _scorer_factory(["x", "y", "z"], detector)(0)
        b = _scorer_factory(["x", "y", "z"], detector)(0)
        rows = [rng.normal(size=(3, 8)) for _ in range(12)]
        for k in range(6):
            a.step_tick(k, k / 2.0, rows[k])
        snap = a.snapshot()
        for k in range(6, 12):
            a.step_tick(k, k / 2.0, rows[k])
        b.restore(snap)
        results = [b.step_tick(k, k / 2.0, rows[k]) for k in range(6, 12)]
        # Re-run a third scorer straight through for the expected tail.
        c = _scorer_factory(["x", "y", "z"], detector)(0)
        for k in range(12):
            expected = c.step_tick(k, k / 2.0, rows[k])
            if k >= 6:
                assert results[k - 6] == expected
        assert a.snapshot().tick == 11

    def test_restore_does_not_alias_the_snapshot(self):
        detector = _detector()
        scorer = _scorer_factory(["x", "y"], detector)(0)
        scorer.step_tick(0, 0.0, np.zeros((2, 8)))
        snap = scorer.snapshot()
        scorer.restore(snap)
        scorer.step_tick(1, 0.5, np.ones((2, 8)))
        other = _scorer_factory(["x", "y"], detector)(0)
        other.restore(snap)  # must still be the tick-0 state
        assert other.snapshot().tick == 0

    def test_tick_monotonicity_enforced(self):
        scorer = _scorer_factory(["x"])(0)
        scorer.step_tick(3, 1.0, np.zeros((1, 8)))
        with pytest.raises(ConfigError, match="tick 3 after 3"):
            scorer.step_tick(3, 2.0, np.zeros((1, 8)))

    def test_phase_following_scales_threshold(self):
        scorer = ShardScorer(
            0, _detector(), ["x"], FleetConfig(),
            timeline=storm_timeline(onset_s=10.0),
        )
        r0 = scorer.step_tick(0, 0.0, np.zeros((1, 8)))
        r1 = scorer.step_tick(1, 20.0, np.zeros((1, 8)))
        assert r0.phase == "quiet" and r0.threshold_scale == 1.0
        assert r1.phase == "spe" and r1.threshold_scale < 1.0


class TestBackends:
    def test_in_process_crash_restart_restore(self):
        backend = InProcessBackend(_scorer_factory(["x", "y"]), 2)
        backend.start()
        backend.step(0, 0, 0.0, np.zeros((2, 8)))
        snap = backend.snapshot(0)
        backend.crash(0)
        with pytest.raises(ShardCrashed):
            backend.step(0, 1, 0.5, np.zeros((2, 8)))
        backend.restart(0)
        backend.restore(0, snap)
        result = backend.step(0, 1, 0.5, np.zeros((2, 8)))
        assert result.tick == 1
        backend.close()

    def test_unknown_strategy_rejected(self):
        assert ServiceConfig(strategy="sequential").strategy == "sequential"
        for strategy in ("gpu", "thread", "process"):
            with pytest.raises(ConfigError, match="unknown strategy"):
                ServiceConfig(strategy=strategy)


class TestSupervisor:
    def _result(self, **kw):
        base = dict(
            shard=0, tick=0, t=1.0, n_boards=2, n_scored=2,
            n_anomalous=0, alarms=(), quarantined=(), released=(),
            max_score=0.0, warming_up=False,
        )
        base.update(kw)
        return ShardStepResult(**base)

    def test_quarantine_set_tracks_results(self):
        supervisor = FleetSupervisor(make_members(2, seed=700))
        supervisor.apply(self._result(quarantined=("board-000",)))
        assert supervisor.quarantined == {"board-000"}
        supervisor.apply(
            self._result(tick=1, t=2.0, released=("board-000",))
        )
        assert supervisor.quarantined == set()
        assert supervisor.ticks_applied == 2

    def test_alarm_escalates_through_controller_cooldown(self):
        members = make_members(1, seed=700)
        supervisor = FleetSupervisor(members)
        first = supervisor.apply(
            self._result(alarms=("board-000",), t=10.0)
        )
        second = supervisor.apply(
            self._result(tick=1, alarms=("board-000",), t=20.0)
        )
        assert first == ["board-000"]
        assert second == []  # inside the 60 s cooldown
        assert supervisor.alarm_times() == {"board-000": [10.0, 20.0]}
        assert supervisor.reboot_times() == {"board-000": [10.0]}

    def test_duplicate_board_ids_rejected(self):
        members = make_members(2, seed=700)
        members[1].board_id = members[0].board_id
        with pytest.raises(ConfigError, match="unique"):
            FleetSupervisor(members)

    def test_unknown_board_rejected(self):
        supervisor = FleetSupervisor(make_members(1, seed=700))
        with pytest.raises(ConfigError, match="unknown board"):
            supervisor.member("board-999")

    def test_recovery_anchor_requires_checkpoint(self):
        supervisor = FleetSupervisor(make_members(1, seed=700))
        with pytest.raises(ConfigError, match="no snapshot"):
            supervisor.recovery_anchor(0)


class TestSources:
    def test_live_source_marks_destroyed_boards_dead(self):
        members = make_members(2, seed=800)
        source = LiveBoardSource(members)
        row = source.row(0, 0, 0.0)
        assert np.isfinite(row).all()
        members[1].dead = True
        assert np.isnan(source.row(1, 0, 0.0)).all()

    def test_replay_source_bounds(self):
        source = ReplaySource(np.zeros((2, 3, 4)))
        assert source.n_ticks == 2 and source.n_columns == 4
        source.row(2, 1, 0.0)
        with pytest.raises(ConfigError, match="replay exhausted"):
            source.row(0, 2, 0.0)
        with pytest.raises(ConfigError, match="ticks, boards"):
            ReplaySource(np.zeros((2, 3)))

    def test_recording_is_deterministic(self):
        rows_a = record_fleet_telemetry(
            make_members(3, seed=800), duration_s=4.0, rate_hz=2.0,
            timeline=storm_timeline(onset_s=1.0),
            sel_rate_per_board_day=400.0, timeline_seed=5,
        )
        rows_b = record_fleet_telemetry(
            make_members(3, seed=800), duration_s=4.0, rate_hz=2.0,
            timeline=storm_timeline(onset_s=1.0),
            sel_rate_per_board_day=400.0, timeline_seed=5,
        )
        assert rows_a.shape == (8, 3, rows_a.shape[2])
        np.testing.assert_array_equal(rows_a, rows_b)

    def test_replay_reference_matches_async_replay(self):
        detector = _detector()
        rows = record_fleet_telemetry(
            make_members(4, seed=810), duration_s=6.0, rate_hz=2.0,
            timeline=storm_timeline(onset_s=1.0),
            sel_rate_per_board_day=800.0, timeline_seed=5,
        )
        assert rows.shape == (12, 4, 8)
        reference = run_replay_reference(
            detector, make_members(4, seed=810), rows, rate_hz=2.0
        )
        service = AsyncFleetService(
            detector,
            make_members(4, seed=810),
            service=ServiceConfig(n_shards=2, max_inflight_ticks=4),
            source=ReplaySource(rows),
        )
        service.run(duration_s=6.0, rate_hz=2.0)
        assert service.alarm_times() == reference.alarm_times
        assert service.reboot_times() == reference.reboot_times
        assert (
            service.health_rollup().merge_key()
            == reference.health.merge_key()
        )


class TestServiceConfigValidation:
    @pytest.mark.parametrize(
        "kw, match",
        [
            (dict(n_shards=0), ">= 1 shard"),
            (dict(strategy="quantum"), "unknown strategy"),
            (dict(queue_capacity=0), "queue capacity"),
            (dict(max_inflight_ticks=0), "max_inflight_ticks"),
            (dict(snapshot_every=0), "snapshot_every"),
        ],
    )
    def test_bounds(self, kw, match):
        with pytest.raises(ConfigError, match=match):
            ServiceConfig(**kw)

    def test_run_is_one_shot(self):
        detector = _detector()
        service = AsyncFleetService(
            detector,
            make_members(1, seed=820),
            source=ReplaySource(np.zeros((2, 1, 8))),
        )
        service.run(duration_s=2.0, rate_hz=1.0)
        with pytest.raises(ServiceError, match="one-shot"):
            service.run(duration_s=2.0, rate_hz=1.0)

    def test_health_requires_a_run(self):
        service = AsyncFleetService(
            _detector(), make_members(1, seed=820),
            source=ReplaySource(np.zeros((2, 1, 8))),
        )
        with pytest.raises(ServiceError, match="run the service"):
            service.health_rollup()

    def test_bad_run_args(self):
        service = AsyncFleetService(
            _detector(), make_members(1, seed=820),
            source=ReplaySource(np.zeros((2, 1, 8))),
        )
        with pytest.raises(ConfigError, match="positive"):
            service.run(duration_s=0.0)


class TestServiceLifetime:
    @pytest.mark.parametrize("crash_at", [None, {1: 3}])
    def test_finished_service_is_freed_by_refcount(self, crash_at):
        """A run leaves no reference cycle through the service, so its
        memory goes when the last reference does, not whenever the
        cyclic collector next runs."""
        rows = record_fleet_telemetry(
            make_members(4, seed=830), duration_s=4.0, rate_hz=2.0,
        )
        gc.collect()
        gc.disable()
        try:
            service = AsyncFleetService(
                _detector(),
                make_members(4, seed=830),
                service=ServiceConfig(n_shards=2, max_inflight_ticks=2),
                source=ReplaySource(rows),
                crash_at=crash_at,
            )
            report = service.run(duration_s=4.0, rate_hz=2.0)
            assert report.restarts == (1 if crash_at else 0)
            alive = weakref.ref(service)
            del service
            assert alive() is None
        finally:
            gc.enable()


class TestShardIngestUnits:
    def test_mismatched_indices_rejected(self):
        with pytest.raises(ConfigError, match="one id per board"):
            ShardIngest(0, [0, 1], ["a"], ReplaySource(np.zeros((1, 2, 3))))

    def test_sheds_are_traced_as_obs_events(self):
        from repro.obs import InMemorySink, Tracer

        sink = InMemorySink()
        source = ReplaySource(np.ones((4, 1, 3)))
        ingest = ShardIngest(
            0, [0], ["a"], source, capacity=1,
            policy="reject", tracer=Tracer(sink),
        )
        for tick in range(4):
            ingest.produce(tick, float(tick))
        sheds = [e for e in sink.events if e.kind == "queue-shed"]
        assert len(sheds) == 3
        assert {e.policy for e in sheds} == {"reject"}
        assert [e.tick for e in sheds] == [1, 2, 3]  # arrivals shed
        assert all(e.board_id == "a" and e.queue_len == 1 for e in sheds)

    def test_assemble_missing_frame_is_nan_row(self):
        source = ReplaySource(np.ones((3, 2, 4)))
        ingest = ShardIngest(0, [0], ["a"], source, capacity=1)
        ingest.produce(0, 0.0)
        ingest.produce(1, 1.0)  # capacity 1, drop-oldest sheds tick 0
        rows, frames = ingest.assemble(0)
        assert np.isnan(rows).all() and frames == {}
        rows, frames = ingest.assemble(1)
        assert np.isfinite(rows).all() and set(frames) == {"a"}
        assert ingest.counters()["shed"] == 1
