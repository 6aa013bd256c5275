"""Self-tests of the benchmark suite, at ``--quick`` sizes.

    python -m pytest benchmarks/suite -q
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from benchmarks.suite import cli, compare, ledger, stats, worker  # noqa: E402
from benchmarks.suite import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- generators ------------------------------------------------------------------


def test_derived_seeds_are_deterministic_and_never_reused():
    seeds = {wl.derive_seed(7, r, c, s)
             for r in range(-1, 20) for c in range(18) for s in range(2)}
    assert len(seeds) == 21 * 18 * 2
    assert wl.derive_seed(7, 3, 4, 1) == wl.derive_seed(7, 3, 4, 1)
    assert wl.derive_seed(7, 3, 4, 1) != wl.derive_seed(8, 3, 4, 1)


def test_campaign_seeds_spread_over_the_cost_order_without_reuse():
    label = "orbit@none"
    rank = {wl.pool_seed(label, k): r
            for r, k in enumerate(wl._pool_order()[label])}
    draws = [wl.campaign_seed(7, label, d) for d in range(wl.POOL_SIZE)]
    assert draws == [wl.campaign_seed(7, label, d)
                     for d in range(wl.POOL_SIZE)]
    assert len(set(draws)) == wl.POOL_SIZE
    eighth = wl.POOL_SIZE // 8
    assert sorted(rank[seed] // eighth for seed in draws[:8]) == \
        list(range(8))
    assert len({wl.campaign_seed(s, label, 0) for s in range(10)}) > 1
    assert wl.campaign_seed(7, label, wl.POOL_SIZE) not in rank
    assert wl.campaign_seed(7, label, -1) not in rank
    # A traced repeat's draw is its untraced twin's neighbour.
    half = wl.POOL_SIZE // 2
    for d in range(half):
        twin = rank[wl.campaign_seed(7, label, d + half)]
        assert twin == (rank[draws[d]] + 1) % wl.POOL_SIZE


def test_campaign_inputs_are_deterministic():
    from repro.perf.cache import module_fingerprint

    workload = wl.WORKLOADS["campaign-pruned"]
    a, b = workload.setup(5, True, None), workload.setup(5, True, None)
    assert [label for label, _ in a.cells] == [label for label, _ in b.cells]
    for (_, x), (_, y) in zip(a.cells, b.cells):
        assert module_fingerprint(x.module) == module_fingerprint(y.module)
        assert (x.fuel, x.n_trials, x.args) == (y.fuel, y.n_trials, y.args)


def test_service_recording_is_deterministic_per_seed():
    workload = wl.WORKLOADS["service-replay"]
    a, b = workload.record(5, quick=True), workload.record(5, quick=True)
    other = workload.record(6, quick=True)
    assert np.array_equal(a.rows, b.rows, equal_nan=True)
    assert not np.array_equal(a.rows, other.rows, equal_nan=True)


# -- statistics ------------------------------------------------------------------


def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    assert stats.quartiles(values) == tuple(
        statistics.quantiles(values, n=4)
    )
    assert stats.quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_nearest_rank_returns_observed_samples():
    values = [float(v) for v in range(1, 11)]
    assert stats.nearest_rank(values, 50) == 5.0
    assert stats.nearest_rank(values, 90) == 9.0
    assert stats.nearest_rank(values, 99) == 10.0
    assert stats.nearest_rank([], 50) == 0.0


def test_host_clock_scales_by_neighbouring_samples():
    ref = stats.REFERENCE_KERNEL_S
    clock = stats.HostClock(samples=[(1.0, ref), (3.0, 2 * ref), (5.0, ref)])
    # Unit between samples at 1.0 (1x) and 3.0 (2x): factor 1.5.
    assert clock.factor(1.5, 2.5) == pytest.approx(1.5)
    assert clock.normalised(1.5, 2.5) == pytest.approx(1.0 / 1.5)
    assert clock.factor(3.5, 4.0) == pytest.approx(1.5)


# -- compare verdicts ------------------------------------------------------------


@pytest.mark.parametrize("base, change, better, expected", [
    ([100.0], [120.0], "higher", "unchanged"),
    ([100.0], [95.0], "higher", "unchanged"),
    ([100.0], [80.0], "higher", "worse"),
    ([10.0], [12.0], "lower", "worse"),
    ([100, 101, 99, 100, 100], [99, 100, 101, 100, 99], "higher", "unchanged"),
    ([100, 101, 99, 100, 100], [80, 81, 79, 80, 80], "higher", "worse"),
    ([60, 140, 100, 80, 120], [100, 100, 100, 100, 100], "higher",
     "unresolved"),
    ([60, 140, 100, 80, 120], [200, 210, 220, 205, 215], "higher",
     "unchanged"),
])
def test_compare_verdicts(base, change, better, expected):
    assert compare.verdict(base, change, 0.08, better) == expected


def test_paired_rule_needs_nine_wins_in_ten():
    base = [100.0 + i % 3 for i in range(10)]
    nine = [b * 1.05 for b in base[:9]] + [base[9] - 1]
    eight = [b * 1.05 for b in base[:8]] + [base[8] - 1, base[9] - 1]
    assert compare.verdict(base, nine, 0.08, "higher") == "better"
    assert compare.verdict(base, eight, 0.08, "higher") == "unchanged"
    assert compare.verdict(base, nine, None, "higher") == "info"


def _result_file(ops: float, error_rate: float = 0.0, seed: int = 1,
                 seconds: float = 16) -> dict:
    metrics = {"ops_per_s": {"value": ops}, "host.kernel_ms": {"value": 6.0}}
    return {
        "meta": {"seed": seed, "seconds": seconds, "quick": False,
                 "trace": 0, "available_cpus": 2, "python": "3"},
        "workloads": {"w": {"metrics": metrics, "error_rate": error_rate,
                            "digests": {"r0": "d"}}},
    }


def test_compare_refuses_runs_made_differently():
    assert compare.mismatches([_result_file(1), _result_file(1)]) == []
    assert compare.mismatches([_result_file(1), _result_file(1, seed=2)])
    assert compare.mismatches([_result_file(1), _result_file(1, seconds=4)])


def test_a_gain_with_a_higher_error_rate_is_not_better():
    spec = {"end_to_end": [{"name": "ops_per_s", "bound": 0.08,
                            "better": "higher"}]}
    base = [_result_file(100.0 + i % 3) for i in range(10)]
    faster = [_result_file(150.0) for _ in range(10)]
    pairs = [f for pair in zip(base, faster) for f in pair]
    lines, ok = compare.compare(pairs, spec)
    assert ok and "ops_per_s" in lines[0] and lines[0].endswith("better")
    faster[3] = _result_file(150.0, error_rate=0.1)
    pairs = [f for pair in zip(base, faster) for f in pair]
    lines, ok = compare.compare(pairs, spec)
    assert not ok and lines[0].endswith("unchanged (error_rate rose)")


# -- tracing ---------------------------------------------------------------------


def _originals(hooks):
    return [(h.owner, h.attr, vars(h.owner).get(h.attr)) for h in hooks]


@pytest.mark.parametrize("name", ["campaign-pruned", "service-overload"])
def test_trace_run_reports_every_layer_and_restores_wrappers(name, tmp_path):
    workload = wl.WORKLOADS[name]
    inputs = workload.setup(3, True, workload.record(3, quick=True))
    hooks = workload.hooks(inputs)
    before = _originals(hooks)
    result = worker.run_workload(name, 3, seconds=0, trace=True, quick=True,
                                 trace_dir=tmp_path)
    assert json.loads((tmp_path / f"trace-{name}.json").read_text())["spans"]
    assert _originals(hooks) == before
    for owner, attr, original in before:
        assert not hasattr(getattr(owner, attr), "__wrapped__")
    assert result["correct"]
    assert set(result["layers"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["layers"]["trace.coverage"]["value"] == \
        pytest.approx(1.0, abs=0.01)


def test_wrappers_are_installed_only_inside_the_block():
    from repro.ir.interp import Interpreter

    original = Interpreter.run
    led = ledger.Ledger()
    with led.installed(ledger.campaign_hooks()):
        assert Interpreter.run.__wrapped__ is original
    assert Interpreter.run is original


# -- the command -----------------------------------------------------------------


def test_benchmark_json_matches_the_suite():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    result = worker.run_workload("campaign-plain", 2, 0, False, quick=True)
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


def test_command_prints_the_result_line(capsys):
    assert cli.main(["--workload", "campaign-plain", "--quick",
                     "--seconds", "0", "--seed", "4"]) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert list(line["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]


def test_injected_digest_mismatch_fails_the_command(monkeypatch, capsys):
    counter = iter(range(10**6))
    monkeypatch.setattr(wl, "sha256_lines", lambda lines: str(next(counter)))
    monkeypatch.setattr(cli, "run_worker", lambda name, args: (
        worker.run_workload(name, args.seed, args.seconds, bool(args.trace),
                            args.quick)
    ))
    assert cli.main(["--workload", "service-replay", "--quick",
                     "--seconds", "0"]) == 1
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not line["correct"] and line["failed"] > 0


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "suite",
                    tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload",
         "campaign-plain", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
