"""Constellation soak: 64 boards, a storm burst, byte-identity gates.

The central claim of ``repro.service``: the sharded async service is
*indistinguishable* from the synchronous reference on the decision
surface.  One 64-board fleet rides a forced solar-particle-event burst
(timeline-scheduled latch-ups at 400/board-day under a 50x storm), and
at every shard count the async run must reproduce the synchronous
:class:`SelFleetService` byte-for-byte:

- per-board alarm histories (exact times, exact order);
- per-board commanded power-cycle times (controller cooldown included);
- shard-merged health rollups (integer counters and exact-rational
  histograms, compared by merge key);

and the whole history must be reconstructible from the JSONL trace
alone.  A mid-run shard crash (scorer dropped, snapshot restored, buffer
re-stepped) must change *nothing* on that surface — recovery is
lossless by construction, and this test is the proof obligation.
"""

import pytest

from repro.core.sel import (
    SelFleetService,
    SelTrialConfig,
    train_detector_on_clean_trace,
)
from repro.detect import FleetConfig, ResidualCusumDetector
from repro.obs import InMemorySink, JsonlSink, Tracer
from repro.obs.query import TraceIndex
from repro.service import (
    AsyncFleetService,
    ServiceConfig,
    make_members,
    service_history,
    storm_timeline,
)

N_BOARDS = 64
DURATION_S = 30.0
RATE_HZ = 2.0
N_TICKS = int(DURATION_S * RATE_HZ)
ONSET_S = 5.0
SEL_RATE = 400.0
TIMELINE_SEED = 7
MEMBER_SEED = 300


@pytest.fixture(scope="module")
def detector():
    return train_detector_on_clean_trace(
        ResidualCusumDetector(h_sigma=40.0),
        SelTrialConfig(train_duration_s=60.0),
        seed=11,
    )


def _async_service(detector, *, tracer=None, crash_at=None, **service_kw):
    members = make_members(N_BOARDS, seed=MEMBER_SEED)
    return AsyncFleetService(
        detector,
        members,
        config=FleetConfig(),
        service=ServiceConfig(**service_kw),
        tracer=tracer,
        timeline=storm_timeline(onset_s=ONSET_S),
        sel_rate_per_board_day=SEL_RATE,
        timeline_seed=TIMELINE_SEED,
        crash_at=crash_at,
    )


@pytest.fixture(scope="module")
def reference(detector):
    """The synchronous ground truth every async cell must match."""
    members = make_members(N_BOARDS, seed=MEMBER_SEED)
    service = SelFleetService(
        detector,
        members,
        FleetConfig(),
        timeline=storm_timeline(onset_s=ONSET_S),
        sel_rate_per_board_day=SEL_RATE,
        timeline_seed=TIMELINE_SEED,
    )
    service.run(duration_s=DURATION_S, rate_hz=RATE_HZ)
    alarms = service.alarm_times()
    reboots = {
        m.board_id: list(m.controller.reboots)
        for m in members
        if m.controller.reboots
    }
    assert alarms, "soak scenario must actually alarm"
    assert reboots, "soak scenario must actually power-cycle"
    return service, alarms, reboots


class TestShardedByteIdentity:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_alarm_and_reboot_history_identity(
        self, detector, reference, n_shards
    ):
        sync, alarms, reboots = reference
        service = _async_service(detector, n_shards=n_shards)
        report = service.run(duration_s=DURATION_S, rate_hz=RATE_HZ)
        assert service.alarm_times() == alarms
        assert service.reboot_times() == reboots
        assert report.n_shards == n_shards
        assert report.rows_shed == 0  # lockstep never sheds

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_shard_merged_health_equals_whole_fleet(
        self, detector, reference, n_shards
    ):
        sync, _, _ = reference
        service = _async_service(detector, n_shards=n_shards)
        service.run(duration_s=DURATION_S, rate_hz=RATE_HZ)
        merged = service.health_rollup()
        assert merged.merge_key() == sync.scorer.health.merge_key()
        # Per-board counters survive the merge individually.
        snap = merged.snapshot()
        for board_id in ("board-000", "board-031", "board-063"):
            key = f"board.{board_id}.scored"
            assert snap["counters"][key] == (
                sync.scorer.health.snapshot()["counters"][key]
            )


class TestCrashRecovery:
    def test_mid_run_crash_recovers_losslessly(self, detector, reference):
        """Kill shards mid-run; histories must not change at all."""
        sync, alarms, reboots = reference
        service = _async_service(
            detector,
            n_shards=4,
            snapshot_every=7,
            crash_at={0: 10, 2: 40},
        )
        report = service.run(duration_s=DURATION_S, rate_hz=RATE_HZ)
        assert report.restarts == 2
        assert service.alarm_times() == alarms
        assert service.reboot_times() == reboots
        assert (
            service.health_rollup().merge_key()
            == sync.scorer.health.merge_key()
        )

    def test_crash_preserves_quarantine_state(self, detector, reference):
        """The quarantine counters ride the snapshot, not the scorer."""
        sync, _, _ = reference
        service = _async_service(
            detector, n_shards=2, snapshot_every=5, crash_at={1: 30}
        )
        service.run(duration_s=DURATION_S, rate_hz=RATE_HZ)
        merged = service.health_rollup().snapshot()["counters"]
        ref = sync.scorer.health.snapshot()["counters"]
        for key in ("fleet.quarantines", "fleet.releases", "fleet.alarms"):
            assert merged.get(key, 0) == ref.get(key, 0)
        assert merged.get("fleet.alarms", 0) > 0


class TestTraceReplay:
    def test_history_reconstructs_from_jsonl(
        self, detector, reference, tmp_path
    ):
        _, alarms, reboots = reference
        trace_path = tmp_path / "service.jsonl"
        sink = InMemorySink()
        with JsonlSink(trace_path) as jsonl:
            service = _async_service(
                detector,
                n_shards=4,
                snapshot_every=9,
                crash_at={1: 20},
                tracer=Tracer(sink, jsonl),
            )
            service.run(duration_s=DURATION_S, rate_hz=RATE_HZ)
        # From the file (the offline path)...
        history = service_history(trace_path)
        assert history.alarm_times == alarms
        assert history.reboot_times == reboots
        assert history.decisions == 4 * N_TICKS  # one per shard per tick
        assert [r[0] for r in history.restarts] == [1]
        # ...and from the in-memory index, identically.
        index = TraceIndex(list(enumerate(sink.events)))
        assert service_history(index).alarm_times == alarms
        # The board index covers the new event kinds.
        cycled = next(iter(reboots))
        board_events = index.by_board.get(cycled, [])
        assert any(
            e.kind == "board-power-cycle" for _, e in board_events
        )
