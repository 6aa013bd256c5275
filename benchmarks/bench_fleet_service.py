"""E18 — mission-control service: sharded throughput under saturation.

The service claim: sharding the fleet does not buy drift — every cell
of the shard matrix (1 / 2 / 4 shards, each scored in-process) replays
the same seeded bursty telemetry (storm-burst latch-up schedule from the
environment timeline) and must reproduce the synchronous single-scorer
reference **byte-for-byte**: per-board alarm times, commanded
power-cycles, and the shard-merged health rollup.  Each cell runs
:data:`~benchmarks._util.GATE_ROUNDS` times, one run per cell a round,
rotating which cell goes first; every run is gated, and each cell keeps
its median rows/s with q1–q3 and its median nearest-rank p50/p99
decision latency.  Timings are informational, the identity gates bind
everywhere.

Merges a ``service`` section into ``BENCH_fleet.json`` (preserving the
E15 ``throughput``/``ensemble`` sections; bounded trajectory via
:func:`repro.perf.report.write_perf_report`) and writes
``benchmarks/results/E18.txt``.

Budget knobs: ``REPRO_SERVICE_BOARDS`` (default 64),
``REPRO_SERVICE_TICKS`` (default 1000, service-replay's length: a timed
run of 64,000 rows; at 200 ticks a run was 12,800 rows, about 30 ms,
and a cell's median moved by a quarter between back-to-back runs).
"""

from __future__ import annotations

import os
from pathlib import Path
from statistics import median, quantiles

from benchmarks._util import GATE_ROUNDS, fmt_table, write_result
from repro.core.sel import SelTrialConfig, train_detector_on_clean_trace
from repro.detect import FleetConfig, ResidualCusumDetector
from repro.faults.parallel import available_cpus
from repro.perf.report import load_perf_report, write_perf_report
from repro.service import (
    AsyncFleetService,
    ReplaySource,
    ServiceConfig,
    make_members,
    record_fleet_telemetry,
    run_replay_reference,
    storm_timeline,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT_PATH = REPO_ROOT / "BENCH_fleet.json"

N_BOARDS = int(os.environ.get("REPRO_SERVICE_BOARDS", "64"))
N_TICKS = int(os.environ.get("REPRO_SERVICE_TICKS", "1000"))
RATE_HZ = 10.0
DURATION_S = N_TICKS / RATE_HZ
ONSET_S = DURATION_S / 4.0
SEL_RATE = 400.0
TIMELINE_SEED = 7
MEMBER_SEED = 500
SHARD_COUNTS = (1, 2, 4)
#: Saturation depth: frames pipeline ahead of decisions (replay mode is
#: open-loop, so pipelining cannot change the decision history), while
#: staying under the queue bound so nothing sheds and identity binds on
#: every row.
INFLIGHT = 8

SNAPSHOT: dict = {}
_STATE: dict = {}


def _members():
    return make_members(N_BOARDS, seed=MEMBER_SEED)


def test_e18_record_reference():
    """Record the seeded bursty window; run the synchronous reference."""
    detector = train_detector_on_clean_trace(
        ResidualCusumDetector(h_sigma=40.0),
        SelTrialConfig(train_duration_s=60.0),
        seed=11,
    )
    rows = record_fleet_telemetry(
        _members(),
        duration_s=DURATION_S,
        rate_hz=RATE_HZ,
        timeline=storm_timeline(onset_s=ONSET_S),
        sel_rate_per_board_day=SEL_RATE,
        timeline_seed=TIMELINE_SEED,
    )
    reference = run_replay_reference(
        detector, _members(), rows, rate_hz=RATE_HZ
    )
    assert reference.alarm_times, "bursty window must actually alarm"
    _STATE.update(detector=detector, rows=rows, reference=reference)
    SNAPSHOT["workload"] = {
        "boards": N_BOARDS,
        "ticks": N_TICKS,
        "rate_hz": RATE_HZ,
        "alarm_boards": len(reference.alarm_times),
        "alarms": sum(len(v) for v in reference.alarm_times.values()),
        "reboots": sum(len(v) for v in reference.reboot_times.values()),
    }


def _gated_run(n_shards: int):
    """One replay at ``n_shards``, byte-identical to the reference."""
    reference = _STATE["reference"]
    service = AsyncFleetService(
        _STATE["detector"],
        _members(),
        config=FleetConfig(),
        service=ServiceConfig(
            n_shards=n_shards,
            max_inflight_ticks=INFLIGHT,
            snapshot_every=10**9,  # snapshots off the hot path
        ),
        source=ReplaySource(_STATE["rows"]),
    )
    report = service.run(duration_s=DURATION_S, rate_hz=RATE_HZ)
    assert service.alarm_times() == reference.alarm_times, (
        f"x{n_shards}: alarm history diverged"
    )
    assert service.reboot_times() == reference.reboot_times, (
        f"x{n_shards}: escalation history diverged"
    )
    assert (
        service.health_rollup().merge_key()
        == reference.health.merge_key()
    ), f"x{n_shards}: health rollup diverged"
    assert report.rows_shed == 0
    return report


def test_e18_shard_matrix():
    """Every shard count, every round: gate byte-identity, then keep
    each cell's medians."""
    assert _STATE, "reference measurement did not run"
    runs: dict[int, list] = {n_shards: [] for n_shards in SHARD_COUNTS}
    for k in range(GATE_ROUNDS):
        first = k % len(SHARD_COUNTS)
        for n_shards in SHARD_COUNTS[first:] + SHARD_COUNTS[:first]:
            runs[n_shards].append(_gated_run(n_shards))
    matrix: dict[str, dict] = {}
    for n_shards, reports in runs.items():
        rates = [report.rows_per_s for report in reports]
        q1, _, q3 = quantiles(rates, n=4)
        matrix[f"x{n_shards}"] = {
            "shards": n_shards,
            "rounds": len(reports),
            "rows_per_s": median(rates),
            "rows_per_s_q1": q1,
            "rows_per_s_q3": q3,
            "p50_ms": median(r.latency["p50"] for r in reports) * 1e3,
            "p99_ms": median(r.latency["p99"] for r in reports) * 1e3,
            "byte_identical": True,
        }
    SNAPSHOT["service"] = {
        "available_cpus": available_cpus(),
        "inflight_ticks": INFLIGHT,
        "matrix": matrix,
    }


def test_e18_write_report():
    assert "service" in SNAPSHOT, "matrix measurements did not run"
    # Merge, do not clobber: E15's sections stay current alongside ours.
    previous = load_perf_report(REPORT_PATH) or {}
    merged = {
        key: value
        for key, value in previous.items()
        if key not in ("history", "schema", "generated")
    }
    merged.update(SNAPSHOT)
    write_perf_report(REPORT_PATH, merged)

    svc = SNAPSHOT["service"]
    work = SNAPSHOT["workload"]
    body = fmt_table(
        ["shards", "rows/s", "q1-q3", "p50 ms", "p99 ms", "identical"],
        [
            [
                str(cell["shards"]),
                f"{cell['rows_per_s']:.0f}",
                f"{cell['rows_per_s_q1']:.0f}-{cell['rows_per_s_q3']:.0f}",
                f"{cell['p50_ms']:.2f}",
                f"{cell['p99_ms']:.2f}",
                "yes",
            ]
            for cell in svc["matrix"].values()
        ],
    )
    body += (
        f"\n\n{work['boards']} boards x {work['ticks']} ticks replayed "
        f"(storm burst: {work['alarms']} alarms on "
        f"{work['alarm_boards']} boards, {work['reboots']} reboots); "
        f"medians of {GATE_ROUNDS} rounds, rotating which cell runs "
        "first; every run byte-identical to the synchronous reference; "
        f"{svc['available_cpus']} CPU(s) available"
    )
    write_result("E18", "mission-control service throughput", body)
