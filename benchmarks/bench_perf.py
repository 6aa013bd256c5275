"""PERF — the fault-injection engine's performance trajectory.

Measures the three optimizations this layer stacks on the campaign engine
and writes a machine-readable snapshot to ``BENCH_perf.json`` at the repo
root (:mod:`repro.perf.report` keeps a bounded history of prior runs, so
the file records a perf *trajectory* across commits, not a single point):

* interpreter fast path — Minstr/s of :class:`repro.ir.interp.Interpreter`
  (each block translated once into a compiled Python function) vs
  :class:`repro.ir.refinterp.ReferenceInterpreter` (the original dispatch
  loop, kept as the differential oracle);
* campaign throughput — trials/s of the optimized engine (fast path +
  the module's record: its compiled code and golden run) vs the
  pre-optimization baseline engine (reference interpreter, no caches);
* trial streams — the baseline engine draws every trial from numpy's own
  forked Generators, the optimized engine from exact trial streams
  (:func:`repro.rng.trial_streams`), and their trial records must be
  equal;
* tracing overhead — event and span tracing vs the untraced campaign,
  each the median of :data:`GATE_ROUNDS` interleaved rounds of CPU time
  (``time.process_time``): every trial runs in this process, so CPU
  time covers all of a campaign's work.  The rounds are stored.

Determinism assertions always gate: the fast path's exactness, the
baseline's records equal to the engine's, and traced campaigns equal to
the untraced one.  Timing numbers are recorded, not asserted, unless
``REPRO_PERF_STRICT=1``: wall-clock depends on the host, but correctness
never does.  ``campaign.available_cpus`` records the CPUs the run could
use.

``REPRO_PERF_GATE=1`` (CI perf-smoke) adds the fast-path gate, judged
on the median of :data:`GATE_ROUNDS` interleaved rounds because one
best-of-1 sample flips on identical code: the fast path's speedup over
the reference loop, the smallest per-program median, must reach
:data:`MIN_SPEEDUP_BAR`.  The bar is a constant, moved only on purpose:
a bar taken from the last stored run would follow whichever run was
committed last.  A gated run stores its median as its own
``min_speedup``, history only; an ungated one stores its best-of
sample.  A test stores its numbers only once its gates passed, and the
report is written only when no test failed, so a failed gate leaves
``BENCH_perf.json`` byte-identical.

``golden_cache`` counts the golden lookups of the throughput test's
campaigns over a fresh module: one miss, then one hit per timed
campaign.

Budget knobs: ``REPRO_PERF_TRIALS`` (campaign trials per measurement,
default 300), ``REPRO_PERF_REPEAT`` (timing repetitions, best-of,
default 3).
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from statistics import median

from benchmarks._util import (
    GATE_ROUNDS,
    fmt_table,
    interleaved_ratios,
    write_result,
)
from repro.faults.campaign import (
    Campaign,
    make_injector,
    run_campaign,
    trial_fuel_for,
)
from repro.faults.outcomes import FaultOutcome, TrialResult, classify
from repro.obs.events import InMemorySink, Tracer
from repro.obs.report import outcome_counts
from repro.obs.spans import SpanEnd, SpanStart, campaign_root
from repro.ir.interp import Interpreter
from repro.ir.refinterp import ReferenceInterpreter
from repro.perf import GOLDEN_CACHE
from repro.perf.report import write_perf_report
from repro.rng import fork, make_rng
from repro.workloads.irprograms import PROGRAMS, build_program

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT_PATH = REPO_ROOT / "BENCH_perf.json"

N_TRIALS = int(os.environ.get("REPRO_PERF_TRIALS", "300"))
REPEAT = int(os.environ.get("REPRO_PERF_REPEAT", "3"))
STRICT = os.environ.get("REPRO_PERF_STRICT") == "1"
GATE = os.environ.get("REPRO_PERF_GATE") == "1"

INTERP_PROGRAMS = ("isort", "orbit")
#: The fast-path gate's bar on the median speedup: 0.8 × the 28.62×
#: median of the run that set it.
MIN_SPEEDUP_BAR = 22.9
CAMPAIGN_PROGRAM = "isort"

#: Accumulated across tests in this module; the last test writes the report.
SNAPSHOT: dict = {}


def _best_of(fn, repeat: int = REPEAT) -> float:
    """Best-of-N wall time of ``fn()`` (minimum is the least noisy)."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _cpu_rounds(sides: dict) -> dict[str, list[float]]:
    """:data:`GATE_ROUNDS` interleaved CPU-time samples of each side.

    Each round runs every side once, back to back, rotating which goes
    first, so host drift within a round hits every side alike.
    """
    names = list(sides)
    rounds: dict[str, list[float]] = {name: [] for name in names}
    for k in range(GATE_ROUNDS):
        first = k % len(names)
        for name in names[first:] + names[:first]:
            t0 = time.process_time()
            sides[name]()
            rounds[name].append(time.process_time() - t0)
    return rounds


def _baseline_campaign(campaign: Campaign, seed: int) -> list[TrialResult]:
    """The pre-optimization engine: reference interpreter, no caches.

    Replicates the original serial loop exactly — golden run and every
    trial on :class:`ReferenceInterpreter`, nothing memoized, each trial
    drawing from a numpy Generator forked from the seed — as the "before"
    point of the throughput trajectory.  Returns its trial records.
    """
    golden = ReferenceInterpreter(
        campaign.module, cost_model=campaign.cost_model, fuel=campaign.fuel
    ).run(campaign.func_name, list(campaign.args))
    trial_fuel = trial_fuel_for(campaign, golden)
    trials = []
    for trial_rng in fork(make_rng(seed), campaign.n_trials):
        injector = make_injector(campaign, golden, trial_rng)
        result = ReferenceInterpreter(
            campaign.module,
            cost_model=campaign.cost_model,
            fuel=trial_fuel,
            step_hook=injector,
        ).run(campaign.func_name, list(campaign.args))
        outcome, rel_error = classify(
            result, golden.value, campaign.sdc_tolerance
        )
        if not injector.fired:
            outcome, rel_error = FaultOutcome.BENIGN, 0.0
        trials.append(TrialResult(
            spec=injector.resolved or injector.spec,
            outcome=outcome,
            value=result.value,
            rel_error=rel_error,
            cycles=result.cycles,
        ))
    return trials


def test_perf_interpreter_fastpath():
    per_program = {}
    gate_rounds = {}
    for name in INTERP_PROGRAMS:
        module = build_program(name)
        args = list(PROGRAMS[name].default_args)

        ref = ReferenceInterpreter(module).run(name, args)
        code_cache: dict = {}
        fast = Interpreter(module, code_cache=code_cache).run(name, args)
        # Exactness gates: the fast path must be cycle- and value-exact.
        assert fast.value == ref.value or (
            fast.value != fast.value and ref.value != ref.value
        )
        assert fast.instructions == ref.instructions
        assert fast.cycles == ref.cycles
        assert fast.status == ref.status

        def run_ref():
            return ReferenceInterpreter(module).run(name, args)

        def run_fast():
            return Interpreter(module, code_cache=code_cache).run(name, args)

        t_ref = _best_of(run_ref)
        t_fast = _best_of(run_fast)
        per_program[name] = {
            "instructions": ref.instructions,
            "reference_minstr_per_s": ref.instructions / t_ref / 1e6,
            "fast_minstr_per_s": ref.instructions / t_fast / 1e6,
            "speedup": t_ref / t_fast,
        }
        if GATE:
            gate_rounds[name] = interleaved_ratios(run_ref, run_fast)

    speedups = [d["speedup"] for d in per_program.values()]
    min_speedup = min(speedups)
    entry = {
        "programs": per_program,
        "min_speedup": min_speedup,
        "target_speedup": 9.0,
    }
    if STRICT:
        assert min_speedup >= 9.0, f"min_speedup {min_speedup:.2f}x < 9x"
    if GATE:
        gate_min = min(median(ratios) for ratios in gate_rounds.values())
        assert gate_min >= MIN_SPEEDUP_BAR, (
            f"min_speedup below the bar: median {gate_min:.2f}x over "
            f"{GATE_ROUNDS} interleaved rounds vs {MIN_SPEEDUP_BAR}x"
        )
        # History only: no later run's gate reads it.
        entry["gate_rounds"] = gate_rounds
        entry["min_speedup"] = gate_min
    # Stored only once every gate passed: a failed median must not
    # become the next run's bar.
    SNAPSHOT["interpreter"] = entry


def test_perf_campaign_throughput():
    module = build_program(CAMPAIGN_PROGRAM)
    campaign = Campaign(
        module=module,
        func_name=CAMPAIGN_PROGRAM,
        args=PROGRAMS[CAMPAIGN_PROGRAM].default_args,
        n_trials=N_TRIALS,
    )

    GOLDEN_CACHE.clear()
    serial = run_campaign(campaign, seed=1)
    baseline: list[list[TrialResult]] = []
    t_baseline = _best_of(
        lambda: baseline.append(_baseline_campaign(campaign, seed=1)), 1
    )
    # Streams gate: the baseline forks numpy Generators, the engine draws
    # from trial streams, so equal records check the streams against the
    # numpy this runs on.
    assert baseline[-1] == serial.trials, (
        "the engine's trial streams diverged from numpy's forked generators"
    )
    t_serial = _best_of(lambda: run_campaign(campaign, seed=1))

    baseline_tps = N_TRIALS / t_baseline
    serial_tps = N_TRIALS / t_serial
    campaign_entry = {
        "program": CAMPAIGN_PROGRAM,
        "n_trials": N_TRIALS,
        "available_cpus": len(os.sched_getaffinity(0)),
        "baseline_trials_per_s": baseline_tps,
        "serial_trials_per_s": serial_tps,
        "serial_speedup_vs_baseline": serial_tps / baseline_tps,
        "target_speedup_vs_baseline": 2.0,
    }
    if STRICT:
        assert serial_tps >= 2.0 * baseline_tps
    # The first campaign ran golden; every timed one found it.
    assert GOLDEN_CACHE.stats.misses == 1
    assert GOLDEN_CACHE.stats.hits == REPEAT
    # Stored only once every gate passed.
    SNAPSHOT["campaign"] = campaign_entry
    SNAPSHOT["golden_cache"] = GOLDEN_CACHE.stats.as_dict()


def test_perf_observability_overhead():
    """Tracing must observe, not perturb: byte-identity + bounded cost.

    Two measurements ride the perf snapshot:

    * ``traced_overhead`` and ``span_traced_overhead`` — event tracing
      and span tracing (in-memory sinks) vs the untraced campaign, each
      the median of :data:`GATE_ROUNDS` interleaved CPU-time rounds.
      The event stream is also replayed through
      :func:`repro.obs.report.outcome_counts` and must reproduce the
      engine tally exactly.
    * the untraced loop itself IS the disabled mode (``tracer=None`` is
      one pointer test per trial), so the trajectory history in
      ``BENCH_perf.json`` is the regression gate for disabled overhead.
    """
    module = build_program(CAMPAIGN_PROGRAM)
    campaign = Campaign(
        module=module,
        func_name=CAMPAIGN_PROGRAM,
        args=PROGRAMS[CAMPAIGN_PROGRAM].default_args,
        n_trials=N_TRIALS,
    )

    plain = run_campaign(campaign, seed=1)
    sink = InMemorySink()
    traced = run_campaign(campaign, seed=1, tracer=Tracer(sink))
    assert traced.trials == plain.trials, "tracing perturbed the campaign"
    assert outcome_counts(sink.events) == plain.counts.as_dict(), (
        "event stream disagrees with the engine tally"
    )

    # Span tracing rides the same budget: causal ids are hash-derived
    # (clock-free), so the traced campaign stays byte-identical and the
    # span stream is well-formed — one campaign root plus one closed
    # span per trial.
    span_sink = InMemorySink()
    span_traced = run_campaign(
        campaign, seed=1, tracer=Tracer(span_sink), trace_spans=True
    )
    assert span_traced.trials == plain.trials, (
        "span tracing perturbed the campaign"
    )
    starts = [e for e in span_sink.events if isinstance(e, SpanStart)]
    ends = [e for e in span_sink.events if isinstance(e, SpanEnd)]
    assert len(starts) == len(ends) == N_TRIALS + 1
    assert starts[0].span == campaign_root(
        CAMPAIGN_PROGRAM, CAMPAIGN_PROGRAM, 1, N_TRIALS
    )

    rounds = _cpu_rounds({
        "untraced": lambda: run_campaign(campaign, seed=1),
        "traced": lambda: run_campaign(
            campaign, seed=1, tracer=Tracer(InMemorySink())
        ),
        "span_traced": lambda: run_campaign(
            campaign, seed=1, tracer=Tracer(InMemorySink()), trace_spans=True
        ),
    })
    overheads = {
        side: [
            t / t_plain - 1.0
            for t, t_plain in zip(rounds[side], rounds["untraced"])
        ]
        for side in ("traced", "span_traced")
    }
    overhead = median(overheads["traced"])
    span_overhead = median(overheads["span_traced"])
    if STRICT:
        # Enabled tracing emits ~3 events/trial into a list append; it
        # must stay a small fraction of the trial's interpreter work —
        # and span tracing (two extra events/trial, one blake2b each)
        # shares the same 25% budget.
        assert overhead < 0.25, f"tracing overhead {overhead:.1%}"
        assert span_overhead < 0.25, (
            f"span tracing overhead {span_overhead:.1%}"
        )
    SNAPSHOT["observability"] = {
        "events_per_campaign": len(sink.events),
        "span_events_per_campaign": len(span_sink.events),
        "traced_overhead": overhead,
        "span_traced_overhead": span_overhead,
        "overhead_rounds": overheads,
        "cpu_s_rounds": rounds,
        "target_traced_overhead": 0.25,
        "deterministic": True,
    }


def test_perf_write_report(request):
    # A failed gate anywhere in the session writes nothing: the stored
    # entry, and with it every gate's bar, stays as it was.
    assert request.session.testsfailed == 0, "a perf gate failed"
    assert "interpreter" in SNAPSHOT and "campaign" in SNAPSHOT, (
        "earlier perf measurements did not run"
    )
    report = write_perf_report(REPORT_PATH, SNAPSHOT)

    interp = SNAPSHOT["interpreter"]
    camp = SNAPSHOT["campaign"]
    rows = [
        [
            name,
            f"{d['reference_minstr_per_s']:.2f}",
            f"{d['fast_minstr_per_s']:.2f}",
            f"{d['speedup']:.2f}x",
        ]
        for name, d in interp["programs"].items()
    ]
    body = fmt_table(
        ["program", "ref Minstr/s", "fast Minstr/s", "speedup"], rows
    )
    body += "\n\n" + fmt_table(
        ["engine", "trials/s", "vs baseline"],
        [
            ["baseline (ref interp)", f"{camp['baseline_trials_per_s']:.0f}",
             "1.00x"],
            ["optimized serial", f"{camp['serial_trials_per_s']:.0f}",
             f"{camp['serial_speedup_vs_baseline']:.2f}x"],
        ],
    )
    obs = SNAPSHOT.get("observability", {})
    body += (
        f"\n\n{camp['n_trials']} trials of {camp['program']}; "
        f"{camp['available_cpus']} CPU(s) available; "
        f"history depth {len(report.get('history', []))}; "
        f"tracing overhead {obs.get('traced_overhead', 0.0):+.1%} "
        f"({obs.get('events_per_campaign', 0)} events), "
        f"span-traced {obs.get('span_traced_overhead', 0.0):+.1%} "
        f"({obs.get('span_events_per_campaign', 0)} events), "
        f"medians of {GATE_ROUNDS} interleaved CPU-time rounds"
    )
    write_result("PERF", "fault-injection engine throughput", body)
