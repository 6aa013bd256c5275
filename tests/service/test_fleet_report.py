"""The fleet report and export read the same at any shard count.

The sharded service traces one ``FleetDecision`` per shard per tick,
interleaved across shards, so the trace index replays the fleet per
tick time: a lossless replay traced at 1, 2 and 3 shards renders one
fleet section and exports the same ``fleet.*`` and ``board.*`` entries,
and a never-quarantined board's ``ticks_scored`` is the scorer's own
count of that board's scored samples.
"""

import pytest

from repro.core.sel import SelTrialConfig, train_detector_on_clean_trace
from repro.detect import FleetConfig, ResidualCusumDetector
from repro.obs import JsonlSink, Tracer
from repro.obs.export import registry_from_trace
from repro.obs.query import TraceIndex
from repro.obs.report import render, report_dict
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
def replays(tmp_path_factory):
    """Per shard count: the service and its JSONL trace."""
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
    folder = tmp_path_factory.mktemp("fleet")
    runs = {}
    for n_shards in (1, 2, 3):
        path = folder / f"fleet-{n_shards}.jsonl"
        with Tracer(JsonlSink(path)) as tracer:
            service = AsyncFleetService(
                detector,
                make_members(BOARDS, seed=MEMBER_SEED),
                config=FleetConfig(warmup_s=2.0, consecutive_hits=2),
                service=ServiceConfig(n_shards=n_shards),
                tracer=tracer,
                source=ReplaySource(rows),
            )
            report = service.run(duration_s=DURATION_S, rate_hz=RATE_HZ)
        assert report.rows_shed == 0
        runs[n_shards] = service, path
    return runs


def fleet_section(path) -> tuple[str, dict, dict, dict]:
    """The report's fleet text and JSON, and the export's fleet entries."""
    index = TraceIndex.from_file(path)
    text = render(index)
    rollup = registry_from_trace(path)
    fleet = ("fleet.", "board.")
    return (
        text[text.index("-- fleet decisions"):],
        report_dict(index)["fleet"],
        {n: v for n, v in rollup.counters.items() if n.startswith(fleet)},
        {
            n: h.merge_key() for n, h in rollup.histograms.items()
            if n.startswith(fleet)
        },
    )


def test_fleet_section_is_the_same_at_any_shard_count(replays):
    section = fleet_section(replays[1][1])
    text, _, counters, histograms = section
    assert "ticks: 80 (76 scored, 4 in warmup) over 12 boards" in text
    assert counters["fleet.ticks"] == 80
    assert histograms["fleet.max_score"][2] == 76  # sample count
    for n_shards in (2, 3):
        assert fleet_section(replays[n_shards][1]) == section


def test_max_score_quantiles_are_per_tick_nearest_rank(replays):
    text = render(TraceIndex.from_file(replays[2][1]))
    assert "max-score per tick: mean=114.9 p50=112.2 p90=220.7 max=245.2" \
        in text


@pytest.mark.parametrize("n_shards", [1, 2, 3])
def test_ticks_scored_is_the_scorers_count(replays, n_shards):
    service, path = replays[n_shards]
    counters = service.health_rollup().counters
    health = TraceIndex.from_file(path).fleet.health()
    assert "board-000" in health
    for board_id, board in health.items():
        if not board.quarantines:
            assert board.ticks_scored == counters[f"board.{board_id}.scored"]


@pytest.mark.parametrize("n_shards", [1, 2, 3])
def test_traced_counters_are_the_scorers(replays, n_shards):
    service, path = replays[n_shards]
    health = service.health_rollup().counters
    traced = registry_from_trace(path).counters
    shared = health.keys() & traced.keys()
    assert {"fleet.scored", "fleet.alarms", "board.board-000.alarms"} <= shared
    assert {n: traced[n] for n in shared} == {n: health[n] for n in shared}
