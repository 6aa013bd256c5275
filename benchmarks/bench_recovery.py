"""E13 — supervised recovery: detections become survivals, measured.

A supervised fault-injection campaign drives every observable failure
(CRASH / HANG / DETECTED) through the escalation ladder and accounts for
what recovery costs.  Expected shape: >= 90% of observable failures
recover to a correct output; the rollback-first ladder recovers with an
order of magnitude fewer wasted cycles than always re-running the task;
and a mission flown with the supervisor's measured parameters beats the
flat 30-second-reboot model on uptime.
"""

from statistics import median

import pytest

from benchmarks._util import (
    GATE_ROUNDS,
    RESULTS_DIR,
    fmt_table,
    interleaved_ratios,
    write_result,
)
from repro.core.dmr import ProtectedProgram, ProtectionLevel
from repro.faults.campaign import Campaign, run_campaign
from repro.obs.events import InMemorySink, JsonlSink, Tracer
from repro.obs.metrics import latency_summary
from repro.obs.recorder import FlightRecorder
from repro.obs.report import main as report_main
from repro.obs.events import read_trace
from repro.obs.report import outcome_counts
from repro.obs.spans import SpanEnd, SpanStart, campaign_root
from repro.recover import (
    LadderConfig,
    RecoveryRung,
    SupervisorConfig,
    run_supervised_campaign,
)
from repro.sim.mission import (
    MissionConfig, PROTECTED_COMMODITY, run_mission,
)
from repro.workloads.irprograms import PROGRAMS, build_program

from dataclasses import replace

N_TRIALS = 250
SEED = 13


def _campaign(name: str, protected: bool = False) -> Campaign:
    module = build_program(name)
    if protected:
        module = ProtectedProgram(
            module, name, ProtectionLevel.CFI_DATAFLOW
        ).module
    return Campaign(
        module=module,
        func_name=name,
        args=PROGRAMS[name].default_args,
        n_trials=N_TRIALS,
    )


LADDERS = {
    "retry-first": LadderConfig(),
    "rollback-first": LadderConfig.rollback_first(),
}

WORKLOADS = [
    ("isort", False),    # memory-heavy stress workload
    ("matmul", False),   # long fp kernel: checkpoints pay off
    ("collatz", True),   # DMR-protected: DETECTED-dominated failures
]


@pytest.fixture(scope="module")
def supervised_runs():
    runs = {}
    for name, protected in WORKLOADS:
        for ladder_name, ladder in LADDERS.items():
            config = SupervisorConfig(
                ladder=ladder,
                checkpoint_interval=100,
                checkpoint_capacity=8,
                storage_flip_prob=0.02,
            )
            runs[(name, ladder_name)] = run_supervised_campaign(
                _campaign(name, protected), config, seed=SEED
            )
    return runs


def test_e13_supervised_recovery(supervised_runs, benchmark):
    benchmark.pedantic(
        run_supervised_campaign,
        args=(_campaign("isort"),),
        kwargs={"seed": SEED},
        rounds=1, iterations=1,
    )

    rows = []
    for (name, ladder_name), res in supervised_runs.items():
        hist = res.rung_histogram()
        rows.append([
            name,
            ladder_name,
            str(res.n_failures),
            f"{res.recovery_rate:.3f}",
            f"{res.mean_recovery_latency_s * 1e6:.1f}",
            f"{res.wasted_cycle_overhead * 100:.2f}%",
            str(hist[RecoveryRung.RETRY]),
            str(hist[RecoveryRung.ROLLBACK]),
            str(hist[RecoveryRung.COLD_RESTART]),
            str(hist[RecoveryRung.POWER_CYCLE]),
        ])
    body = fmt_table(
        ["workload", "ladder", "fails", "recov", "lat us",
         "wasted", "retry", "rollbk", "cold", "power"],
        rows,
    )
    body += (
        f"\n\n{N_TRIALS} trials/run, seed {SEED}, 2% checkpoint-storage "
        "SEU rate; latency at 1 GHz"
    )
    write_result("E13", "supervised recovery across ladders", body)

    for (name, ladder_name), res in supervised_runs.items():
        # The acceptance bar: >= 90% of observable failures recovered to
        # a correct output.
        assert res.recovery_rate >= 0.90, (name, ladder_name)
        # Determinism: identical re-run.
        again = run_supervised_campaign(
            _campaign(name, dict(WORKLOADS)[name]),
            res.config,
            seed=SEED,
        )
        assert again.counts.as_dict() == res.counts.as_dict()

    # Rollback-first wastes fewer cycles on the long kernel than
    # retry-first (a rollback redoes only the work since the checkpoint).
    retry = supervised_runs[("matmul", "retry-first")]
    rollback = supervised_runs[("matmul", "rollback-first")]
    assert rollback.mean_wasted_cycles < retry.mean_wasted_cycles


def test_e13b_mission_with_measured_recovery(supervised_runs):
    res = supervised_runs[("isort", "rollback-first")]
    params = res.recovery_params()
    supervised = replace(
        PROTECTED_COMMODITY,
        name="commodity-supervised",
        recovery=params,
    )

    rows = []
    uptimes = {}
    for profile in (PROTECTED_COMMODITY, supervised):
        report = run_mission(
            MissionConfig(profile=profile, duration_days=365.0), seed=6
        )
        uptimes[profile.name] = report.uptime_fraction
        rows.append([
            profile.name,
            f"{report.uptime_fraction:.5f}",
            f"{report.recovered_events}",
            f"{report.unrecovered_events}",
            f"{report.recovery_downtime_s:.0f}",
            f"{report.sdc_escapes}",
        ])
    body = fmt_table(
        ["profile", "uptime", "recovered", "unrecov", "rec dt s", "SDC"],
        rows,
    )
    body += (
        "\n\nmeasured recovery: "
        f"downtime={params.mean_downtime_s:.2e}s "
        f"success={params.success_frac:.3f} "
        f"residual_sdc={params.residual_sdc_frac:.4f}"
    )
    write_result("E13b", "mission with supervisor-measured recovery", body)

    # The supervisor's measured sub-second recoveries beat the flat 30 s
    # reboot charge.
    assert uptimes["commodity-supervised"] >= uptimes["commodity-protected"]


def test_e13c_observability(supervised_runs, capsys):
    """The E13 campaign, traced: the black box must agree with the engine.

    Re-runs the isort/retry-first supervised campaign with the full
    observability stack attached — JSONL trace, flight recorder, and a
    hang-heavy unsupervised campaign (fib) through the same recorder —
    then checks the acceptance criteria: byte-identical results, the
    trace reproducing ``OutcomeCounts`` exactly through the report CLI's
    aggregation path, recovery-latency quantiles exposed on the trials,
    and post-mortem dumps for at least one CRASH and one HANG trial.
    """
    untraced = supervised_runs[("isort", "retry-first")]
    RESULTS_DIR.mkdir(exist_ok=True)
    trace_path = RESULTS_DIR / "E13_trace.jsonl"
    recorder = FlightRecorder(capacity=64, max_dumps=64)
    with Tracer(JsonlSink(trace_path), recorder) as tracer:
        traced = run_supervised_campaign(
            _campaign("isort"),
            untraced.config,
            seed=SEED,
            tracer=tracer,
            trace_spans=True,
        )
        hang_run = run_campaign(
            Campaign(
                module=build_program("fib"),
                func_name="fib",
                args=PROGRAMS["fib"].default_args,
                n_trials=N_TRIALS,
            ),
            seed=SEED,
            tracer=tracer,
            trace_spans=True,
        )

    # Tracing observed, it did not perturb.
    assert traced.counts.as_dict() == untraced.counts.as_dict()
    assert traced.trials == untraced.trials

    # The JSONL trace alone reproduces both campaigns' aggregate tallies.
    events = [event for _, event in read_trace(trace_path)]
    rebuilt = outcome_counts(events)
    engine = {
        outcome: traced.counts.as_dict()[outcome]
        + hang_run.counts.as_dict()[outcome]
        for outcome in rebuilt
    }
    assert rebuilt == engine, "trace disagrees with the engine tally"

    # The causal span stream in the same trace is well-formed: one root
    # per campaign (ids re-derivable from campaign identity alone), one
    # trial span per trial, and every opened span closed.
    starts = [e for e in events if isinstance(e, SpanStart)]
    ends = [e for e in events if isinstance(e, SpanEnd)]
    assert len(starts) == len(ends), "unclosed spans in the trace"
    roots = {s.span for s in starts if s.name == "campaign"}
    assert roots == {
        campaign_root("isort", "isort", SEED, N_TRIALS),
        campaign_root("fib", "fib", SEED, N_TRIALS),
    }
    n_trial_spans = sum(1 for s in starts if s.name == "trial")
    assert n_trial_spans == 2 * N_TRIALS

    # Span tracing shares E13's 25% observability budget: ids are
    # hash-derived (no clock reads on the campaign path), so the fully
    # span-traced supervised run must stay within 25% of the untraced
    # wall time.  Judged on the median of GATE_ROUNDS interleaved
    # rounds: one pair of wall-clock samples flips on identical code.
    def _campaign_run(**kwargs):
        return lambda: run_supervised_campaign(
            _campaign("isort"), untraced.config, seed=SEED, **kwargs
        )

    ratios = interleaved_ratios(
        _campaign_run(tracer=Tracer(InMemorySink()), trace_spans=True),
        _campaign_run(),
    )
    span_overhead = median(ratios) - 1.0
    assert span_overhead < 0.25, (
        f"span-traced supervised campaign overhead {span_overhead:.1%} "
        f"(median of {GATE_ROUNDS} interleaved rounds) exceeds the 25% "
        "observability budget"
    )

    # The report CLI renders it and confirms per-campaign agreement.
    assert report_main([str(trace_path)]) == 0
    report_text = capsys.readouterr().out
    assert "agrees" in report_text and "DISAGREES" not in report_text

    # Recovery latency rides the trial records; summarise the survivors.
    latencies = []
    for trial, record in zip(traced.trials, traced.records):
        if record is not None and record.recovered:
            latencies.append(trial.recovery_latency_s)
            assert trial.attempt_latencies_s, "attempt latencies missing"
    quantiles = latency_summary(latencies)
    assert quantiles["count"] == traced.n_recovered
    body = fmt_table(
        ["metric", "value"],
        [
            ["recoveries", str(quantiles["count"])],
            ["latency p50", f"{quantiles['p50'] * 1e6:.2f} us"],
            ["latency p90", f"{quantiles['p90'] * 1e6:.2f} us"],
            ["latency p99", f"{quantiles['p99'] * 1e6:.2f} us"],
            ["trace events", str(len(events))],
            ["span pairs", str(len(starts))],
            [
                "span overhead",
                f"{span_overhead:+.1%} (median of {GATE_ROUNDS}, budget 25%)",
            ],
            ["crash dumps", str(len(recorder.dumps_for("crash")))],
            ["hang dumps", str(len(recorder.dumps_for("hang")))],
        ],
    )
    write_result("E13c", "traced recovery campaign (observability)", body)

    # The flight recorder caught the failures in the act.
    assert recorder.dumps_for("crash"), "no CRASH post-mortem dump"
    assert recorder.dumps_for("hang"), "no HANG post-mortem dump"
