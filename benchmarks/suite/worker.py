"""Run one workload in this process and print its result as one JSON line.

Started by the suite CLI as ``python -m benchmarks.suite.worker`` with
``src`` on ``PYTHONPATH``, one subprocess per workload, so memory and
process-global caches belong to that workload alone.

Phases, in order:

0. the workload's recorded input (service telemetry), made once and
   not timed;
1. set-up, at least :data:`MIN_SETUPS` times (more while they stay under
   :data:`SETUP_BUDGET_S`), keeping the last inputs;
2. one warm-up repeat, untimed for the metrics (campaigns run it at
   :data:`workloads.WARMUP_TRIALS` trials);
3. timed repeats until ``--seconds`` have passed and every unit group
   has :data:`MIN_DRAWS` samples.  With ``--trace 1`` the repeats
   alternate untraced/traced so the tracing overhead is measured on the
   same host phase, and each kind needs :data:`MIN_TRACED_REPEATS`;
4. verification, excluded from every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path
from statistics import median

from benchmarks.suite.ledger import Ledger, layer_metrics
from benchmarks.suite.stats import (
    REFERENCE_KERNEL_S,
    HostClock,
    summarize,
)
from benchmarks.suite.workloads import WORKLOADS

MIN_SETUPS = 3
SETUP_BUDGET_S = 1.0
MAX_SETUPS = 25
#: Samples per unit group an untraced run takes at least: a campaign
#: cell's first four draws take one seed from each quarter of its cost
#: order (``workloads.campaign_seed``), so a run that stops early on a
#: slow host still sees cheap and costly campaigns alike.
MIN_DRAWS = 4
#: Repeats of each kind a traced run makes at least; its per-layer
#: metrics have no bound, so balance matters less than run time.
MIN_TRACED_REPEATS = 3
#: Where traced runs write ``trace-<workload>.json`` unless told otherwise.
TRACE_DIR = Path(__file__).resolve().parents[2] / ".bench_out"


def resident_mb() -> float:
    """Resident set size now (Linux ``/proc/self/statm``)."""
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _metric(unit: str, samples: list[float],
            value: float | None = None) -> dict:
    return {"unit": unit, **summarize(samples, value)}


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, quick: bool = False,
    trace_dir: Path = TRACE_DIR,
) -> dict:
    """Set up, warm up, time and verify ``name``; returns the result.

    A traced run writes its spans to ``trace_dir/trace-<name>.json``.
    """
    from repro.perf.cache import GOLDEN_CACHE

    workload = WORKLOADS[name]
    clock = HostClock()

    recorded = workload.record(seed, quick)
    setup_norm, setup_raw = [], []
    started = time.perf_counter()
    while len(setup_raw) < MIN_SETUPS or (
        time.perf_counter() - started < SETUP_BUDGET_S
        and len(setup_raw) < MAX_SETUPS
    ):
        inputs, (t0, t1) = clock.time(workload.setup, seed, quick, recorded)
        clock.calibrate()
        setup_raw.append(t1 - t0)
        setup_norm.append(clock.normalised(t0, t1))

    warmup = workload.warm_up(inputs, clock)
    clock.calibrate()
    warmup_s = sum(clock.normalised(*unit) for unit in warmup.units)

    timed, untraced, traced, ledgers, shed = [], [], [], [], []
    golden_hits = golden_lookups = 0
    phase_start = time.perf_counter()
    index = 0
    while True:
        # Repeats are numbered per kind: a traced repeat is the twin of
        # the untraced repeat with its number (``CampaignWorkload.repeat``).
        if trace and index % 2:
            ledger = Ledger()
            hits0 = GOLDEN_CACHE.stats.hits
            lookups0 = GOLDEN_CACHE.stats.lookups
            with ledger.installed(workload.hooks(inputs)):
                repeat = workload.repeat(inputs, len(traced), clock, ledger)
            golden_hits += GOLDEN_CACHE.stats.hits - hits0
            golden_lookups += GOLDEN_CACHE.stats.lookups - lookups0
            ledgers.append(ledger)
            traced.append(repeat)
            shed.append(repeat.refused)
        else:
            repeat = workload.repeat(inputs, len(untraced), clock)
            untraced.append(repeat)
        timed.append(repeat)
        if index:
            # Only the first repeat is checked against a reference; the
            # others' digests and invariants are.  Dropping the outputs
            # keeps memory independent of the repeat count.
            repeat.outputs = None
        index += 1
        enough = (
            min(len(untraced), len(traced)) >= MIN_TRACED_REPEATS if trace
            else len(untraced) * repeat.group >= MIN_DRAWS
        )
        if enough and time.perf_counter() - phase_start >= seconds:
            break
    clock.calibrate()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    gc.collect()
    rss_mb = resident_mb()

    def wall(repeats, normalise=True) -> float:
        """Time of one repeat from per-group medians across ``repeats``.

        Every repeat runs the same units in the same order: a campaign
        per cell and seed slot, or the one service run.  Each group of
        ``Repeat.group`` units (one cell's seed slots) contributes its
        size times the median of all its times, which drops the bursts
        of host interference that hit one unit without discarding any
        unit's work.  A cell draws its seeds evenly over its cost order
        (``campaign_seed``), so the median is that of the cell's
        campaigns, hanging trials included.
        """
        group = repeats[0].group
        columns = list(zip(*(
            [clock.normalised(*u) if normalise else u[1] - u[0]
             for u in repeat.units]
            for repeat in repeats
        )))
        return sum(
            group * median([t for column in columns[g:g + group]
                            for t in column])
            for g in range(0, len(columns), group)
        )

    ops = untraced[0].ops
    latency = workload.latencies_ms(untraced, clock)
    per_repeat = [workload.latencies_ms([r], clock) for r in untraced]
    metrics = {
        "ops_per_s": _metric(
            "1/s", [r.ops / wall([r]) for r in untraced],
            ops / wall(untraced),
        ),
        **{
            f"latency_{p}_ms": _metric(
                "ms", [lat[p] for lat in per_repeat], latency[p]
            )
            for p in ("p50", "p90", "p99")
        },
        "setup_s": _metric("s", setup_norm),
        "rss_mb": _metric("MB", [rss_mb]),
        "peak_rss_mb": _metric("MB", [peak_rss_mb]),
        "warmup_s": _metric("s", [warmup_s]),
        "raw.ops_per_s": _metric(
            "1/s", [r.ops / wall([r], False) for r in untraced],
            ops / wall(untraced, False),
        ),
        "raw.setup_s": _metric("s", setup_raw),
        "host.kernel_ms": _metric("ms", [
            clock.factor(r.units[0][0], r.units[-1][1])
            * REFERENCE_KERNEL_S * 1e3
            for r in untraced + traced
        ]),
    }

    layers = {}
    if trace:
        overhead = wall(traced) / wall(untraced)
        layers = {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit) in layer_metrics(
                ledgers, [wall([r], False) for r in traced], overhead,
                golden_hits, golden_lookups, shed,
            ).items()
        }
        _write_trace(Path(trace_dir) / f"trace-{name}.json", name, ledgers,
                     phase_start)

    failed, notes = workload.verify(inputs, timed)
    attempted = sum(r.ops for r in timed)
    refused = sum(r.refused for r in timed)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "quick": quick,
        "unit": workload.unit,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "refused": refused,
        "error_rate": (failed + refused) / attempted,
        "repeats": {"untraced": len(untraced), "traced": len(traced),
                    "setups": len(setup_raw)},
        "metrics": metrics,
        "layers": layers,
        "digests": {"warmup": warmup.digest,
                    **{f"r{i}": r.digest for i, r in enumerate(timed)}},
        "verification": notes,
        "host": {"available_cpus": len(os.sched_getaffinity(0)),
                 "python": platform.python_version()},
    }


def _write_trace(path: Path, name: str, ledgers: list[Ledger],
                 origin: float) -> None:
    """Write the traced repeats' spans (times relative to the phase)."""
    spans = []
    for ledger in ledgers:
        base = len(spans)  # ids run 0..n-1 within one ledger
        spans.extend(
            [layer, start - origin, end - origin,
             parent + base if parent >= 0 else -1, op]
            for _, layer, start, end, parent, op in sorted(ledger.spans)
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "workload": name,
        "fields": ["layer", "start_s", "end_s", "parent", "op"],
        "spans": spans,
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace-dir", type=Path, default=TRACE_DIR)
    args = parser.parse_args(argv)
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.quick,
        args.trace_dir,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
