"""The benchmark command: every workload, every metric, every check.

    python3 benchmarks/suite/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace [0|1]] [--json OUT] [--quick]

Each workload runs in its own subprocess (:mod:`benchmarks.suite.worker`),
one at a time, with ``src`` on its ``PYTHONPATH``.  The command prints
every metric by name with its unit, the verification notes and output
digests, then as its last line one JSON object: ``correct``,
``attempted``, ``failed`` and the ``BENCHMARK.json`` metrics (end-to-end
without ``--trace``, per-layer with it).  It exits 1 when any output
fails verification and 2, without a result line, when a workload cannot
run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from benchmarks.suite.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = ROOT / "BENCHMARK.json"
#: A worker that runs longer than this is killed; the command fails.
WORKER_TIMEOUT_S = 170
DEFAULT_SEED = 1


def load_benchmark() -> dict:
    return json.loads(BENCHMARK.read_text())


def run_worker(name: str, args: argparse.Namespace) -> dict | None:
    """Run one workload's subprocess; None when it fails to report."""
    cmd = [
        sys.executable, "-m", "benchmarks.suite.worker",
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--quick"] if args.quick else [])
    if args.json:
        # Spans go next to the result file rather than under the root.
        cmd += ["--trace-dir", str(Path(args.json).resolve().parent)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"{name}: worker exceeded {WORKER_TIMEOUT_S} s and was killed",
              file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{name}: worker exited with code {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_result(result: dict) -> None:
    repeats = result["repeats"]
    print(
        f"== {result['workload']}: seed {result['seed']}, "
        f"{repeats['untraced']} untraced + {repeats['traced']} traced "
        f"repeats, {repeats['setups']} set-ups, "
        f"{result['host']['available_cpus']} CPUs, "
        f"python {result['host']['python']} =="
    )
    for name, m in result["metrics"].items():
        print(f"  {name:<20} {_fmt(m['value']):>12} {m['unit']:<5} "
              f"q1 {_fmt(m['q1'])}  q3 {_fmt(m['q3'])}  n {m['n']}")
    for name, m in result["layers"].items():
        print(f"  {name:<38} {_fmt(m['value']):>12} {m['unit']}")
    for note in result["verification"]:
        print(f"  verification: {note}")
    print(
        f"  error_rate {result['error_rate']:.4f} ({result['failed']} "
        f"failed + {result['refused']} refused of {result['attempted']} "
        f"{result['unit']})"
    )
    print("  digests: " + ", ".join(
        f"{key} {digest[:12]}" for key, digest in result["digests"].items()
    ))


def result_line(results: dict[str, dict], spec: dict, trace: int) -> dict:
    """The JSON object printed as the last line of standard output."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for name, result in results.items():
        prefix = "" if len(results) == 1 else f"{name}."
        for metric in wanted:
            key = metric["name"]
            value = result["layers" if trace else "metrics"][key]["value"]
            metrics[prefix + key] = {"value": value, "unit": metric["unit"]}
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    spec = load_benchmark()
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark (see BENCHMARK.json)."
    )
    parser.add_argument("--workload", action="append",
                        choices=list(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="timed phase per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from traced repeats")
    parser.add_argument("--json", metavar="OUT",
                        help="write every result, samples included, here")
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, for the suite's self-tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no src/repro package under {ROOT}: nothing to benchmark",
              file=sys.stderr)
        return 2
    results = {}
    for name in args.workload or list(WORKLOADS):
        result = run_worker(name, args)
        if result is None:
            return 2
        results[name] = result
        print_result(result)
    if args.json:
        Path(args.json).write_text(json.dumps({
            "schema": "repro.benchsuite/v1",
            "meta": {
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "quick": args.quick,
                "available_cpus": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
            },
            "workloads": results,
        }, indent=1))
    line = result_line(results, spec, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1
