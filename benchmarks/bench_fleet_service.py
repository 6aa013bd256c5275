"""E18 — mission-control service: sharded throughput under saturation.

The service claim: sharding the fleet across execution backends buys
throughput *without* buying drift — every cell of the strategy matrix
(sequential / process x 1 / 2 / 4 shards) replays the same
seeded bursty telemetry (storm-burst latch-up schedule from the
environment timeline) and must reproduce the synchronous single-scorer
reference **byte-for-byte**: per-board alarm times, commanded
power-cycles, and the shard-merged health rollup.  Rows/s and
nearest-rank p50/p99 decision latency are recorded per cell.

Scaling is load-dependent: on multi-CPU hosts the 4-shard process
configuration is expected at >= 2x the single-shard process throughput
(gated when >= 4 CPUs are available and ``REPRO_SERVICE_GATE`` != 0);
on a single CPU the matrix is informational — the identity gates still
bind everywhere.

Merges a ``service`` section into ``BENCH_fleet.json`` (preserving the
E15 ``throughput``/``ensemble`` sections; bounded trajectory via
:func:`repro.perf.report.write_perf_report`) and writes
``benchmarks/results/E18.txt``.

Budget knobs: ``REPRO_SERVICE_BOARDS`` (default 64),
``REPRO_SERVICE_TICKS`` (default 200), ``REPRO_SERVICE_GATE``
(``0`` records scaling without asserting it).
"""

from __future__ import annotations

import os
from pathlib import Path

from benchmarks._util import fmt_table, write_result
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
N_TICKS = int(os.environ.get("REPRO_SERVICE_TICKS", "200"))
GATE_SCALING = os.environ.get("REPRO_SERVICE_GATE", "1") != "0"
RATE_HZ = 10.0
DURATION_S = N_TICKS / RATE_HZ
ONSET_S = DURATION_S / 4.0
SEL_RATE = 400.0
TIMELINE_SEED = 7
MEMBER_SEED = 500
STRATEGIES = ("sequential", "process")
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


def test_e18_strategy_matrix():
    """Every strategy x shard cell: measure, then gate byte-identity."""
    assert _STATE, "reference measurement did not run"
    detector, rows = _STATE["detector"], _STATE["rows"]
    reference = _STATE["reference"]
    matrix: dict[str, dict] = {}
    for strategy in STRATEGIES:
        for n_shards in SHARD_COUNTS:
            service = AsyncFleetService(
                detector,
                _members(),
                config=FleetConfig(),
                service=ServiceConfig(
                    n_shards=n_shards,
                    strategy=strategy,
                    max_inflight_ticks=INFLIGHT,
                    snapshot_every=10**9,  # snapshots off the hot path
                ),
                source=ReplaySource(rows),
            )
            report = service.run(duration_s=DURATION_S, rate_hz=RATE_HZ)
            assert service.alarm_times() == reference.alarm_times, (
                f"{strategy} x{n_shards}: alarm history diverged"
            )
            assert service.reboot_times() == reference.reboot_times, (
                f"{strategy} x{n_shards}: escalation history diverged"
            )
            assert (
                service.health_rollup().merge_key()
                == reference.health.merge_key()
            ), f"{strategy} x{n_shards}: health rollup diverged"
            assert report.rows_shed == 0
            matrix[f"{strategy}x{n_shards}"] = {
                "strategy": strategy,
                "shards": n_shards,
                "rows_per_s": report.rows_per_s,
                "p50_ms": report.latency["p50"] * 1e3,
                "p99_ms": report.latency["p99"] * 1e3,
                "byte_identical": True,
            }
    SNAPSHOT["service"] = {
        "available_cpus": available_cpus(),
        "inflight_ticks": INFLIGHT,
        "matrix": matrix,
    }


def test_e18_shard_scaling():
    """4-shard vs 1-shard process throughput (gated on >= 4 CPUs)."""
    matrix = SNAPSHOT["service"]["matrix"]
    ratio = (
        matrix["processx4"]["rows_per_s"]
        / matrix["processx1"]["rows_per_s"]
    )
    SNAPSHOT["service"]["process_4shard_over_1shard"] = ratio
    cpus = available_cpus()
    SNAPSHOT["service"]["scaling_gated"] = GATE_SCALING and cpus >= 4
    if GATE_SCALING and cpus >= 4:
        assert ratio >= 2.0, (
            f"4-shard process throughput only {ratio:.2f}x single-shard "
            f"on a {cpus}-CPU host"
        )


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
        ["strategy", "shards", "rows/s", "p50 ms", "p99 ms", "identical"],
        [
            [
                cell["strategy"],
                str(cell["shards"]),
                f"{cell['rows_per_s']:.0f}",
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
        "every cell byte-identical to the synchronous reference\n"
        f"process 4-shard / 1-shard throughput: "
        f"{svc['process_4shard_over_1shard']:.2f}x on "
        f"{svc['available_cpus']} CPU(s)"
        + ("" if svc["scaling_gated"] else " (informational)")
    )
    write_result("E18", "mission-control service throughput", body)
