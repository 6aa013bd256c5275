"""BENCH_perf.json writer: schema, history rolling, bounded depth."""

import json

from repro.perf.report import (
    MAX_HISTORY,
    SCHEMA_VERSION,
    load_perf_report,
    write_perf_report,
)


def test_first_write_has_empty_history(tmp_path):
    path = tmp_path / "BENCH_perf.json"
    report = write_perf_report(path, {"campaign": {"trials_per_s": 100.0}})
    assert report["schema"] == SCHEMA_VERSION
    assert report["history"] == []
    on_disk = json.loads(path.read_text())
    assert on_disk == report


def test_previous_snapshot_rolls_into_history(tmp_path):
    path = tmp_path / "BENCH_perf.json"
    write_perf_report(path, {"campaign": {"trials_per_s": 100.0}})
    report = write_perf_report(path, {"campaign": {"trials_per_s": 120.0}})
    assert report["campaign"]["trials_per_s"] == 120.0
    assert len(report["history"]) == 1
    assert report["history"][0]["campaign"]["trials_per_s"] == 100.0
    # History entries never nest their own history.
    assert "history" not in report["history"][0]


def test_history_depth_is_bounded(tmp_path):
    path = tmp_path / "BENCH_perf.json"
    for i in range(MAX_HISTORY + 5):
        write_perf_report(path, {"run": i})
    report = load_perf_report(path)
    assert len(report["history"]) == MAX_HISTORY
    # Newest-first: the most recent rolled-out snapshot leads.
    assert report["history"][0]["run"] == MAX_HISTORY + 3


def test_load_missing_or_corrupt_returns_none(tmp_path):
    assert load_perf_report(tmp_path / "absent.json") is None
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert load_perf_report(bad) is None


def test_format_report_summarizes_headlines_and_metrics(tmp_path):
    from repro.perf.report import format_report

    # The stored golden_cache section renders.
    report = {
        "schema": 1,
        "min_speedup": 9.5,
        "available_cpus": 4,
        "golden_cache": {"hits": 3, "misses": 1},
        "history": [{"schema": 1, "min_speedup": 7.3}],
    }
    text = format_report(report)
    assert "9.50x" in text
    assert "min_speedup trajectory" in text
    assert "9.50 <- 7.30" in text
    assert "CPUs available to the bench run: 4" in text
    assert "hits: 3" in text


def test_format_report_handles_missing_report():
    from repro.perf.report import format_report

    text = format_report(None)
    assert "no perf report" in text


def test_report_cli_smoke(tmp_path):
    import json
    import subprocess
    import sys

    path = tmp_path / "BENCH_perf.json"
    path.write_text(json.dumps({"schema": 1, "min_speedup": 8.0}))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.perf.report", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "8.00x" in proc.stdout
    assert "golden_cache" in proc.stdout


def test_failed_replace_keeps_the_old_report(tmp_path, monkeypatch):
    import os

    path = tmp_path / "BENCH_perf.json"
    write_perf_report(path, {"run": 1})
    before = path.read_text()

    def crash(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", crash)
    try:
        write_perf_report(path, {"run": 2})
    except OSError:
        pass
    else:  # pragma: no cover - the patched replace always raises
        raise AssertionError("write_perf_report swallowed the failure")
    assert path.read_text() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCH_perf.json"]


def test_failed_replace_keeps_the_old_results_file(tmp_path, monkeypatch):
    import os

    import benchmarks._util as util

    monkeypatch.setattr(util, "RESULTS_DIR", tmp_path)
    util.write_result("E0", "first", "old table")
    before = (tmp_path / "E0.txt").read_text()

    def crash(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", crash)
    try:
        util.write_result("E0", "second", "new table")
    except OSError:
        pass
    else:  # pragma: no cover - the patched replace always raises
        raise AssertionError("write_result swallowed the failure")
    assert (tmp_path / "E0.txt").read_text() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["E0.txt"]


def test_report_cli_survives_a_closed_pipe(tmp_path):
    import json
    import subprocess
    import sys

    # Far more output than a pipe buffers, so the writer is still
    # writing when the reader goes away.
    path = tmp_path / "BENCH_perf.json"
    path.write_text(
        json.dumps({"schema": 1, "available_cpus": "x" * 1_000_000})
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.perf.report", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(1)) == 1
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert stderr == b""
