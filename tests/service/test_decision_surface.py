"""The service's decision surface, pinned by digest.

Every other service identity test compares two callers of the same
:class:`~repro.detect.fleet.FleetScorer` (the synchronous service, the
replay reference, the async service), so a change to the scorer itself
would pass all of them.  These digests were taken from the per-board
scorer and per-board ingest queues and pin, bit for bit:

- the soak scenario (64 boards, a storm burst, live sampling with
  escalation feedback) at 1, 2 and 4 shards, with and without shard
  crashes: alarm times, reboot times, the merged health rollup's
  ``merge_key()`` and the per-shard queue counters;
- a shedding replay (inflight above queue capacity) under each shed
  policy, with a tracer attached: the same surface plus the JSONL
  stream of its ``QueueShed``, ``FleetDecision``, ``BoardPowerCycle``
  and ``ShardRestart`` events.
"""

import pytest

from repro.core.sel import SelTrialConfig, train_detector_on_clean_trace
from repro.detect import FleetConfig, ResidualCusumDetector
from repro.obs import InMemorySink, Tracer
from repro.service import (
    AsyncFleetService,
    ReplaySource,
    ServiceConfig,
    ShedPolicy,
    make_members,
    record_fleet_telemetry,
    storm_timeline,
)
from tests.identity import stream_digest, value_digest

SOAK_BOARDS = 64
SOAK_DURATION_S = 30.0
RATE_HZ = 2.0
SOAK_CRASHES = {1: {0: 25}, 2: {0: 10, 1: 40}, 4: {0: 10, 2: 40}}

SHED_BOARDS = 12
SHED_DURATION_S = 40.0

#: (n_shards, crashed) -> digest of the soak run's decision surface.
SOAK_DIGESTS = {
    (1, False): "4a9261bf63b6fd145b47f7af60dd185cccb4e89d1169f67a1d254beb2f4a3cfc",
    (1, True): "4a9261bf63b6fd145b47f7af60dd185cccb4e89d1169f67a1d254beb2f4a3cfc",
    (2, False): "ac9c69d95e3f2ad751c9809fa64d79f3c3d61b45ac536c054dd76b6829d957cb",
    (2, True): "ac9c69d95e3f2ad751c9809fa64d79f3c3d61b45ac536c054dd76b6829d957cb",
    (4, False): "01a5609b8830070f71ef3bcbe058b8d641d1c9bd6ff8e903f6077e92259eaa19",
    (4, True): "01a5609b8830070f71ef3bcbe058b8d641d1c9bd6ff8e903f6077e92259eaa19",
}

#: policy -> (decision-surface digest, JSONL trace digest).
SHED_DIGESTS = {
    ShedPolicy.DROP_OLDEST: (
        "267ce85d09e13ffbad238f1fdb2b0d1a06ccc6a6a4637aa25fa00107a750cd9b",
        "883c5aae61f357a2070d435064e780e4cb784674d85a1b8fdbae8fdc4367139e",
    ),
    ShedPolicy.REJECT: (
        "29f88869d5635b37134645674dc44d7c25861f04fcf360e08768be3f388617e3",
        "ac848b4e88a081a6fae70a9dbfd513235131c02c7dfb6daf99d5647091077715",
    ),
}


@pytest.fixture(scope="module")
def detector():
    return train_detector_on_clean_trace(
        ResidualCusumDetector(h_sigma=40.0),
        SelTrialConfig(train_duration_s=60.0),
        seed=11,
    )


@pytest.fixture(scope="module")
def shed_rows():
    return record_fleet_telemetry(
        make_members(SHED_BOARDS, seed=410),
        duration_s=SHED_DURATION_S,
        rate_hz=RATE_HZ,
        timeline=storm_timeline(onset_s=5.0),
        sel_rate_per_board_day=2000.0,
        timeline_seed=3,
    )


def surface(service, report) -> tuple:
    return (
        service.alarm_times(),
        service.reboot_times(),
        service.health_rollup().merge_key(),
        report.shard_counters,
    )


def soak_surface(detector, n_shards: int, crashed: bool) -> tuple:
    service = AsyncFleetService(
        detector,
        make_members(SOAK_BOARDS, seed=300),
        config=FleetConfig(),
        service=ServiceConfig(
            n_shards=n_shards, snapshot_every=7 if crashed else 50
        ),
        timeline=storm_timeline(onset_s=5.0),
        sel_rate_per_board_day=400.0,
        timeline_seed=7,
        crash_at=SOAK_CRASHES[n_shards] if crashed else None,
    )
    report = service.run(duration_s=SOAK_DURATION_S, rate_hz=RATE_HZ)
    assert report.restarts == (len(SOAK_CRASHES[n_shards]) if crashed else 0)
    return surface(service, report)


def shed_surface(detector, rows, policy: ShedPolicy) -> tuple:
    sink = InMemorySink()
    service = AsyncFleetService(
        detector,
        make_members(SHED_BOARDS, seed=410),
        config=FleetConfig(
            warmup_s=2.0, consecutive_hits=2, quarantine_after=2,
            release_after=3,
        ),
        service=ServiceConfig(
            n_shards=3,
            queue_capacity=4,
            shed_policy=policy,
            max_inflight_ticks=6,
            snapshot_every=6,
        ),
        tracer=Tracer(sink),
        source=ReplaySource(rows),
        crash_at={1: 33},
    )
    report = service.run(duration_s=SHED_DURATION_S, rate_hz=RATE_HZ)
    assert report.rows_shed > 0 and report.restarts == 1
    counters = service.health_rollup().counters
    assert counters["fleet.quarantines"] and counters["fleet.releases"]
    kinds = {event.kind for event in sink.events}
    assert {"queue-shed", "fleet-decision", "shard-restart"} <= kinds
    return surface(service, report), list(enumerate(sink.events))


class TestSoakSurface:
    @pytest.mark.parametrize("crashed", [False, True])
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_soak_surface_is_pinned(self, detector, n_shards, crashed):
        alarms, reboots, _, _ = got = soak_surface(
            detector, n_shards, crashed
        )
        assert alarms and reboots
        assert value_digest(got) == SOAK_DIGESTS[n_shards, crashed]


class TestShedSurface:
    @pytest.mark.parametrize("policy", list(ShedPolicy))
    def test_shedding_replay_is_pinned(self, detector, shed_rows, policy):
        got, records = shed_surface(detector, shed_rows, policy)
        assert got[0], "the shedding replay must alarm"
        assert (value_digest(got), stream_digest(records)) == (
            SHED_DIGESTS[policy]
        )
