"""Report CLI: text/JSON rendering, --metrics snapshot, error paths."""

import json

import pytest

from repro.faults.campaign import Campaign
from repro.obs.aggregate import LATENCY_BOUNDS, Rollup, aggregate_events
from repro.obs.events import FleetDecision, JsonlSink, Tracer
from repro.obs.export import SNAPSHOT_SCHEMA, export_snapshot
from repro.obs.report import main, read_trace
from repro.perf.cache import GOLDEN_CACHE
from repro.recover import run_supervised_campaign
from repro.workloads.irprograms import PROGRAMS, build_program

N_TRIALS = 40
SEED = 3


@pytest.fixture(scope="module")
def supervised_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "supervised.jsonl"
    campaign = Campaign(
        module=build_program("isort"),
        func_name="isort",
        args=PROGRAMS["isort"].default_args,
        n_trials=N_TRIALS,
    )
    GOLDEN_CACHE.clear()  # golden-cache hits are part of the stream
    with Tracer(JsonlSink(path)) as tracer:
        run_supervised_campaign(campaign, seed=SEED, tracer=tracer)
        # A handful of fleet decisions so the fleet section renders too.
        for t in range(4):
            tracer.emit(FleetDecision(
                t=float(t), n_boards=2, n_scored=2, n_anomalous=0,
                alarms="board-a" if t == 2 else "",
                quarantined="", released="", max_score=0.5,
                warming_up=False,
            ))
    return path


#: The fold of ``supervised_trace``: every counter and histogram the two
#: folds it replaced (an engine-metrics sink and a stream aggregator)
#: produced on this trace, under their surviving names
#: (``fleet.samples_scored`` -> ``fleet.scored``, ``checkpoints.taken`` ->
#: ``events.checkpoint``).
FOLD_COUNTERS = {
    "board.board-a.alarms": 1,
    "events.campaign-end": 1,
    "events.campaign-start": 1,
    "events.checkpoint": 390,
    "events.fleet-decision": 4,
    "events.golden-cache": 1,
    "events.injection": 40,
    "events.ladder-attempt": 11,
    "events.recovery-done": 3,
    "events.trial-end": 40,
    "events.trial-start": 40,
    "fleet.alarms": 1,
    "fleet.anomalous": 0,
    "fleet.scored": 8,
    "fleet.ticks": 4,
    "golden_cache.misses": 1,
    "ladder.attempts.cold-restart": 3,
    "ladder.attempts.power-cycle": 1,
    "ladder.attempts.retry": 3,
    "ladder.attempts.rollback": 4,
    "recovery.recovered": 3,
    "recovery.rung.cold-restart": 1,
    "recovery.rung.power-cycle": 1,
    "recovery.rung.retry": 1,
    "trials.benign": 34,
    "trials.crash": 3,
    "trials.sdc": 3,
}
#: (count, min, max, exact mean) per histogram of the same fold.
FOLD_HISTOGRAMS = {
    "fleet.max_score": (4, 0.5, 0.5, 0.5),
    "recovery.attempt_latency_s": (
        11, 6.11e-07, 30.000054399, 2.754566799818182,
    ),
    "recovery.latency_s": (3, 4.399e-06, 30.20017049, 10.100078266),
    "recovery.wasted_cycles": (3, 4140.0, 169790.0, 76679.66666666667),
    "trial.cycles": (40, 599.0, 4514.0, 4270.125),
}


def _latency_snapshot(tmp_path) -> str:
    registry = Rollup()
    for v in (0.001, 0.002, 0.004):
        registry.observe("fleet.score_latency_s", v, LATENCY_BOUNDS)
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps(export_snapshot(registry)))
    return str(path)


class TestOneFold:
    def test_fold_pins_counters_and_histograms(self, supervised_trace):
        rollup = aggregate_events(
            event for _, event in read_trace(supervised_trace)
        )
        assert rollup.counters == FOLD_COUNTERS
        assert {
            name: (h.count, h.min, h.max, h.mean)
            for name, h in rollup.histograms.items()
        } == FOLD_HISTOGRAMS


class TestReportCli:
    def test_text_report(self, supervised_trace, capsys):
        assert main([str(supervised_trace)]) == 0
        out = capsys.readouterr().out
        assert "[supervised]" in out
        assert "agrees" in out and "DISAGREES" not in out
        assert "recovery:" in out
        assert "-- fleet decisions" in out
        assert "alarm-rate" in out

    def test_json_report(self, supervised_trace, capsys):
        assert main([str(supervised_trace), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["campaigns"][0]["supervised"] is True
        assert sum(doc["campaigns"][0]["outcomes"].values()) == N_TRIALS
        assert doc["fleet"]["board_health"]["board-a"]["alarms"] == 1

    def test_metrics_snapshot_supplies_latency(
        self, supervised_trace, tmp_path, capsys
    ):
        snap = _latency_snapshot(tmp_path)
        assert main([str(supervised_trace), "--metrics", snap]) == 0
        out = capsys.readouterr().out
        assert "decision latency: p50=" in out

    def test_missing_trace(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent.jsonl")]) == 1
        assert "cannot read trace" in capsys.readouterr().err

    def test_bad_metrics_snapshot(self, supervised_trace, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "other/v0"}))
        assert main([str(supervised_trace), "--metrics", str(bad)]) == 1
        assert "cannot read metrics" in capsys.readouterr().err
        assert SNAPSHOT_SCHEMA  # the expected schema is what we rejected
