"""Compare suite result files against the bounds in ``BENCHMARK.json``.

    python -m benchmarks.suite.compare A.json B.json [A2.json B2.json ...]

Files are read as (base, change) pairs, in order, and each file
contributes its reported value per (workload, metric).  Per (workload,
metric) it prints the base and change medians with their quartiles and
a verdict:

* **worse** — the change's median is worse than the base's by more than
  the bound;
* **unresolved** — the base runs' own spread (interquartile distance
  over the median) is wider than the bound, and not every change run
  beats every base run;
* **better** — at least ten pairs, the change wins at least nine in ten
  of them, and the medians differ by more than the base runs'
  interquartile distance;
* **unchanged** — otherwise, including any gain shown by fewer than ten
  pairs.

Metrics without a bound are printed with the verdict ``info``.  A gain
on a workload whose ``error_rate`` rose in any pair does not count: its
**better** verdicts read **unchanged**.  It also lists digests that
differ between the two runs of a pair, every ``error_rate`` increase,
and each file's calibration-kernel time, so a slower host can be told
apart from a slower program.  Exits 1 on any worse or unresolved
verdict, digest mismatch or error-rate increase, and 2 without a
verdict when the files were not run the same way: every file must share
``--seconds``, ``--quick`` and ``--trace``, and the two files of a pair
their ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from benchmarks.suite.stats import quartiles

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
WIN_SHARE = 0.9
#: Fewer pairs than this never support a gain.
MIN_PAIRS = 10


def verdict(
    base: list[float], change: list[float], bound: float | None,
    better: str,
) -> str:
    """Classify ``change`` against ``base``, one value per run, paired by
    position (see the module docstring)."""
    if bound is None:
        return "info"
    sign = 1.0 if better == "higher" else -1.0
    q1, base_median, q3 = quartiles(base)
    change_median = quartiles(change)[1]
    if not base_median:
        return "unresolved"
    if sign * (change_median - base_median) / abs(base_median) < -bound:
        return "worse"
    all_better = all(sign * c > sign * b for b in base for c in change)
    if (q3 - q1) / abs(base_median) > bound and not all_better:
        return "unresolved"
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    if (
        len(base) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(base)
        and abs(change_median - base_median) > q3 - q1
    ):
        return "better"
    return "unchanged"


def _fmt(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    if len(values) == 1:
        return f"{median:.6g}"
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def mismatches(files: list[dict]) -> list[str]:
    """Why the files cannot be compared; empty when they can."""
    problems = []
    for key in ("seconds", "quick", "trace"):
        values = [f["meta"][key] for f in files]
        if len(set(values)) > 1:
            problems.append(f"files differ in --{key}: {values}")
    for n, (a, b) in enumerate(zip(files[0::2], files[1::2])):
        if a["meta"]["seed"] != b["meta"]["seed"]:
            problems.append(f"pair {n} differs in --seed: "
                            f"{a['meta']['seed']} and {b['meta']['seed']}")
    return problems


def compare(files: list[dict], spec: dict) -> tuple[list[str], bool]:
    """Report lines and whether every check passed.

    ``files`` must pass :func:`mismatches`.
    """
    bounds = {m["name"]: (m["bound"], m["better"])
              for m in spec["end_to_end"]}
    pairs = list(zip(files[0::2], files[1::2]))
    lines, ok = [], True
    workloads = [w for w in pairs[0][0]["workloads"]
                 if all(w in f["workloads"] for f in files)]
    error_rose = {
        workload: any(
            b["workloads"][workload]["error_rate"]
            > a["workloads"][workload]["error_rate"]
            for a, b in pairs
        )
        for workload in workloads
    }
    for workload in workloads:
        metrics = pairs[0][0]["workloads"][workload]["metrics"]
        for metric in metrics:
            base = [a["workloads"][workload]["metrics"][metric]["value"]
                    for a, _ in pairs]
            change = [b["workloads"][workload]["metrics"][metric]["value"]
                      for _, b in pairs]
            bound, better = bounds.get(metric, (None, "lower"))
            result = verdict(base, change, bound, better)
            if result == "better" and error_rose[workload]:
                result = "unchanged (error_rate rose)"
            ok &= result not in ("worse", "unresolved")
            lines.append(
                f"{workload:<17} {metric:<16} A {_fmt(base)}  "
                f"B {_fmt(change)}  {result}"
            )
    for n, (a, b) in enumerate(pairs):
        for workload in workloads:
            ra, rb = a["workloads"][workload], b["workloads"][workload]
            if rb["error_rate"] > ra["error_rate"]:
                ok = False
                lines.append(
                    f"pair {n} {workload}: error_rate rose from "
                    f"{ra['error_rate']:.4f} to {rb['error_rate']:.4f}"
                )
            bad = [key for key in ra["digests"].keys() & rb["digests"].keys()
                   if ra["digests"][key] != rb["digests"][key]]
            if bad:
                ok = False
                lines.append(f"pair {n} {workload}: digests differ in "
                             f"{', '.join(sorted(bad))}")
    for n, f in enumerate(files):
        kernel = [f["workloads"][w]["metrics"]["host.kernel_ms"]["value"]
                  for w in workloads]
        lines.append(
            f"file {n}: calibration kernel "
            + ", ".join(f"{w} {k:.2f} ms" for w, k in zip(workloads, kernel))
            + f" ({f['meta']['available_cpus']} CPUs, "
            f"python {f['meta']['python']})"
        )
    return lines, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare benchmark result files (base, change pairs)."
    )
    parser.add_argument("files", nargs="+", metavar="RESULT.json")
    args = parser.parse_args(argv)
    if len(args.files) < 2 or len(args.files) % 2:
        parser.error("give result files as base/change pairs")
    files = [json.loads(Path(p).read_text()) for p in args.files]
    problems = mismatches(files)
    if problems:
        print("not comparable: " + "; ".join(problems), file=sys.stderr)
        return 2
    lines, ok = compare(files, json.loads(BENCHMARK.read_text()))
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
