"""The fleet report reads the same at any shard count.

The sharded service traces one ``FleetDecision`` per shard per tick,
interleaved across shards, so the report takes every per-tick figure
per tick time: a lossless replay traced at 1, 2 and 3 shards renders
one fleet section, and a never-quarantined board's ``ticks_scored`` is
the scorer's own count of that board's scored samples.
"""

import pytest

from repro.core.sel import SelTrialConfig, train_detector_on_clean_trace
from repro.detect import FleetConfig, ResidualCusumDetector
from repro.obs import InMemorySink, Tracer
from repro.obs.aggregate import fleet_board_health
from repro.obs.report import render, summarize, summary_as_dict
from repro.service import (
    AsyncFleetService,
    ReplaySource,
    ServiceConfig,
    make_members,
    record_fleet_telemetry,
    storm_timeline,
)

BOARDS = 12
DURATION_S = 40.0
RATE_HZ = 2.0
MEMBER_SEED = 410


@pytest.fixture(scope="module")
def replays():
    detector = train_detector_on_clean_trace(
        ResidualCusumDetector(h_sigma=40.0),
        SelTrialConfig(train_duration_s=60.0),
        seed=11,
    )
    rows = record_fleet_telemetry(
        make_members(BOARDS, seed=MEMBER_SEED),
        duration_s=DURATION_S,
        rate_hz=RATE_HZ,
        timeline=storm_timeline(onset_s=5.0),
        sel_rate_per_board_day=2000.0,
        timeline_seed=3,
    )
    runs = {}
    for n_shards in (1, 2, 3):
        sink = InMemorySink()
        service = AsyncFleetService(
            detector,
            make_members(BOARDS, seed=MEMBER_SEED),
            config=FleetConfig(warmup_s=2.0, consecutive_hits=2),
            service=ServiceConfig(n_shards=n_shards),
            tracer=Tracer(sink),
            source=ReplaySource(rows),
        )
        report = service.run(duration_s=DURATION_S, rate_hz=RATE_HZ)
        assert report.rows_shed == 0
        runs[n_shards] = service, summarize(sink.events)
    return runs


def fleet_section(summary) -> tuple[str, dict]:
    text = render(summary)
    return text[text.index("-- fleet decisions"):], summary_as_dict(summary)[
        "fleet"
    ]


def test_fleet_section_is_the_same_at_any_shard_count(replays):
    text, fleet = fleet_section(replays[1][1])
    assert "ticks: 80 (76 scored, 4 in warmup) over 12 boards" in text
    for n_shards in (2, 3):
        assert fleet_section(replays[n_shards][1]) == (text, fleet)


@pytest.mark.parametrize("n_shards", [1, 2, 3])
def test_ticks_scored_is_the_scorers_count(replays, n_shards):
    service, summary = replays[n_shards]
    counters = service.health_rollup().counters
    health = fleet_board_health(summary.fleet_decisions)
    assert "board-000" in health
    for board_id, board in health.items():
        if not board.quarantines:
            assert board.ticks_scored == counters[f"board.{board_id}.scored"]
