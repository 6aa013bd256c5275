"""Export tests: snapshot schema round-trip, Prometheus exposition, CLI."""

import json
import subprocess
import sys

import pytest

from repro.errors import ConfigError
from repro.obs.aggregate import LATENCY_BOUNDS, SCORE_BOUNDS, Rollup
from repro.obs.events import FleetDecision, JsonlSink, Tracer, TrialEnd, TrialStart
from repro.obs.export import (
    SNAPSHOT_SCHEMA,
    export_snapshot,
    load_snapshot,
    main,
    registry_from_snapshot,
    registry_from_trace,
    to_prometheus,
)


def _registry():
    registry = Rollup()
    registry.inc("warm_pool.created", 2)
    registry.inc("warm_pool.reused", 7)
    for v in (0.001, 0.01, 0.1, 1.0):
        registry.observe("fleet.score_latency_s", v, LATENCY_BOUNDS)
    return registry


class TestSnapshot:
    def test_schema_tag_and_sections(self):
        snap = export_snapshot(_registry())
        assert snap["schema"] == SNAPSHOT_SCHEMA
        assert snap["counters"]["warm_pool.created"] == 2
        # The v1 shape keeps its gauges section; a rollup has none.
        assert snap["gauges"] == {}
        bucketed = snap["histograms"]["fleet.score_latency_s"]
        assert bucketed["bounds"] == list(LATENCY_BOUNDS)
        assert sum(bucketed["bucket_counts"]) == 4

    def test_snapshot_is_json_serializable(self):
        json.dumps(export_snapshot(_registry()))

    def test_load_rejects_wrong_schema(self):
        with pytest.raises(ConfigError):
            load_snapshot({"schema": "other/v9"})
        with pytest.raises(ConfigError):
            load_snapshot({"schema": SNAPSHOT_SCHEMA, "counters": {}})

    def test_round_trip_restores_bucketed_histograms(self):
        original = _registry()
        document = json.loads(json.dumps(export_snapshot(original)))
        restored = registry_from_snapshot(document)
        assert restored.counters["warm_pool.created"] == 2
        a = original.histograms["fleet.score_latency_s"]
        b = restored.histograms["fleet.score_latency_s"]
        assert b.bounds == LATENCY_BOUNDS
        assert a.merge_key() == b.merge_key()
        assert b.percentile(50) == a.percentile(50)
        assert restored == original

    def test_bucketless_histogram_is_refused_by_name(self):
        # A v1 document written from a reservoir histogram carries only
        # a summary: restoring it empty would lose it silently.
        document = json.loads(json.dumps(export_snapshot(_registry())))
        document["histograms"]["engine.stage.fork_s"] = {
            "count": 1, "mean": 0.25, "min": 0.25, "max": 0.25,
            "p50": 0.25, "p90": 0.25, "p99": 0.25, "truncated": False,
        }
        with pytest.raises(ConfigError, match="engine.stage.fork_s"):
            registry_from_snapshot(document)
        document["gauges"] = {"warm_pool.workers": 4.0}
        with pytest.raises(ConfigError, match="warm_pool.workers"):
            registry_from_snapshot(document)


class TestPrometheus:
    def test_counters_and_gauges(self):
        text = to_prometheus(_registry())
        assert "# TYPE repro_warm_pool_created counter" in text
        assert "repro_warm_pool_created 2" in text
        assert "gauge" not in text  # a rollup holds no gauges

    def test_bucketed_histogram_series(self):
        text = to_prometheus(_registry())
        assert "# TYPE repro_fleet_score_latency_s histogram" in text
        assert 'repro_fleet_score_latency_s_bucket{le="+Inf"} 4' in text
        assert "repro_fleet_score_latency_s_count 4" in text
        # Cumulative buckets are monotone.
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_fleet_score_latency_s_bucket")
        ]
        assert counts == sorted(counts)

    def test_namespace_and_sanitization(self):
        registry = Rollup()
        registry.inc("a.b-c")
        text = to_prometheus(registry, namespace="ns")
        assert "ns_a_b_c 1" in text
        bare = to_prometheus(registry, namespace="")
        assert "a_b_c 1" in bare

    def test_empty_registry(self):
        assert to_prometheus(Rollup()) == ""


class TestOneSum:
    """A histogram exports the one sum its merge compares: the exact
    sum rounded once, whatever order or shards it was recorded in."""

    def _rollup(self, values):
        rollup = Rollup()
        for value in values:
            rollup.observe("x", value, SCORE_BOUNDS)
        return rollup

    def _merged(self, *shards):
        merged = Rollup()
        for values in shards:
            merged.merge(self._rollup(values))
        return merged

    def _round_trip(self, rollup):
        document = json.loads(json.dumps(export_snapshot(rollup)))
        return registry_from_snapshot(document)

    def test_merged_shards_export_the_same_sum(self):
        whole = self._rollup([0.1, 0.2, 0.3])
        sharded = self._merged([0.1], [0.2, 0.3])
        assert sharded == whole
        assert to_prometheus(sharded) == to_prometheus(whole)
        assert "repro_x_sum 0.6\n" in to_prometheus(whole)

    def test_snapshot_round_trip_exports_the_same_text(self):
        rollup = self._rollup([0.1, 0.2, 0.3, 2.5, -0.7])
        assert to_prometheus(self._round_trip(rollup)) == to_prometheus(rollup)

    def test_sum_beyond_the_float_range_exports_inf(self):
        rollup = self._rollup([1e308, 1e308])
        merged = self._merged([1e308], [1e308])
        restored = self._round_trip(merged)
        assert merged == rollup and restored == rollup
        for text in map(to_prometheus, (rollup, merged, restored)):
            assert "repro_x_sum +Inf\n" in text
        assert self._rollup([-1e308, -1e308]).histograms["x"].total == (
            float("-inf")
        )

    def test_snapshot_without_exact_sum_beyond_the_float_range(self):
        document = json.loads(json.dumps(
            export_snapshot(self._rollup([1e308, 1e308]))
        ))
        del document["histograms"]["x"]["exact_total"]
        restored = registry_from_snapshot(document)
        assert restored == self._rollup([1e308, 1e308])
        assert "repro_x_sum +Inf\n" in to_prometheus(restored)


class TestTraceSource:
    def _trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            tracer = Tracer(sink)
            for i in range(3):
                tracer.emit(TrialStart(trial=i))
                tracer.emit(TrialEnd(
                    trial=i, outcome="sdc" if i else "benign",
                    cycles=100 + i, rel_error=0.0,
                ))
        return path

    def test_registry_from_trace(self, tmp_path):
        registry = registry_from_trace(self._trace(tmp_path))
        assert registry.counters["trials.sdc"] == 2
        assert registry.counters["trials.benign"] == 1

    def test_fleet_tick_figures_come_from_the_replay(self, tmp_path):
        path = tmp_path / "fleet.jsonl"
        with Tracer(JsonlSink(path)) as tracer:
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
        registry = registry_from_trace(path)
        assert registry.counters["fleet.ticks"] == 3
        assert registry.counters["fleet.scored"] == 7
        max_score = registry.histograms["fleet.max_score"]
        assert (max_score.count, max_score.max) == (2, 17.5)

    def test_cli_prometheus(self, tmp_path, capsys):
        path = self._trace(tmp_path)
        assert main(["--from-trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "repro_trials_sdc 2" in out

    def test_cli_json_then_snapshot_round_trip(self, tmp_path, capsys):
        path = self._trace(tmp_path)
        assert main(["--from-trace", str(path), "--format", "json"]) == 0
        document = capsys.readouterr().out
        snap_path = tmp_path / "metrics.json"
        snap_path.write_text(document)
        assert json.loads(document)["schema"] == SNAPSHOT_SCHEMA
        assert main(["--from-snapshot", str(snap_path)]) == 0
        out = capsys.readouterr().out
        assert "repro_trials_sdc 2" in out

    def test_cli_missing_source(self, tmp_path, capsys):
        assert main(["--from-trace", str(tmp_path / "absent.jsonl")]) == 1
        assert "cannot load" in capsys.readouterr().err

    def _run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro.obs.export", *args],
            capture_output=True, text=True,
        )

    def test_cli_from_trace_leaves_stderr_empty(self, tmp_path):
        proc = self._run_cli("--from-trace", str(self._trace(tmp_path)))
        assert proc.returncode == 0
        assert "repro_trials_sdc 2" in proc.stdout
        assert proc.stderr == ""

    def test_cli_wrong_schema_snapshot_is_one_error_line(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "other/v0"}))
        proc = self._run_cli("--from-snapshot", str(bad))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
