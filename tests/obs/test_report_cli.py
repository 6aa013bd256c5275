"""Report CLI: text/JSON rendering, --metrics snapshot, error paths."""

import json

from repro.obs.aggregate import LATENCY_BOUNDS, Rollup, aggregate_events
from repro.obs.events import read_trace
from repro.obs.export import SNAPSHOT_SCHEMA, export_snapshot, registry_from_trace
from repro.obs.report import main

N_TRIALS = 40


#: The fold of ``supervised_trace``: every counter and histogram the two
#: folds it replaced (an engine-metrics sink and a stream aggregator)
#: produced on this trace, under their surviving names
#: (``fleet.samples_scored`` -> ``fleet.scored``, ``checkpoints.taken`` ->
#: ``events.checkpoint``), less the per-tick ``fleet.ticks`` and
#: ``fleet.max_score``, which the export takes from the fleet replay.
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

    def test_export_adds_the_replays_tick_figures(self, supervised_trace):
        rollup = registry_from_trace(supervised_trace)
        assert rollup.counters == {**FOLD_COUNTERS, "fleet.ticks": 4}
        max_score = rollup.histograms.pop("fleet.max_score")
        assert (max_score.count, max_score.min, max_score.max,
                max_score.mean) == (4, 0.5, 0.5, 0.5)
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

    def test_trace_cut_mid_line(self, supervised_trace, tmp_path, capsys):
        lines = supervised_trace.read_text().splitlines(keepends=True)
        torn = tmp_path / "torn.jsonl"
        torn.write_text("".join(lines[:50]) + lines[50][:20])
        assert main([str(torn)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read trace")
        assert "unparseable trace line" in err

    def test_bad_metrics_snapshot(self, supervised_trace, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "other/v0"}))
        assert main([str(supervised_trace), "--metrics", str(bad)]) == 1
        assert "cannot read metrics" in capsys.readouterr().err
        assert SNAPSHOT_SCHEMA  # the expected schema is what we rejected
