"""E17 — provably-benign trial pruning: soundness-preserving speedup.

The masking analysis (:mod:`repro.analysis.masking`) classifies every
(site, bit) a register campaign can hit; trials it proves *bit-identical*
to the golden run are skipped and reconstructed.  This experiment
measures, per workload × protection level:

* the static proven-benign mass and the AVF upper bound;
* the realized prune rate over an actual campaign's trial draws;
* wall-clock speedup of the pruned campaign, its planning (masking
  analysis and golden replay) included, as ``run_campaign_pruned``
  callers pay it;

and asserts the contract that makes pruning admissible at all — the
pruned campaign's outcome counts are *byte-identical* to the full
campaign's at the same seed — plus the E17 gate: at least one protected
workload prunes ≥ 20 % of its trials.
"""

import json
import math
import os
import time

import pytest

from benchmarks._util import RESULTS_DIR, fmt_table, write_result
from repro.analysis.masking import PROVEN_BENIGN, analyze_masking
from repro.core.dmr import ProtectionLevel, instrument_module
from repro.faults.campaign import (
    Campaign,
    prune_masked_trials,
    run_campaign,
    run_campaign_pruned,
)
from repro.perf.report import write_text_atomic
from repro.workloads.irprograms import PROGRAMS, build_program

WORKLOADS = ("fact", "gcd", "checksum", "dot", "horner", "fmul_chain")
LEVELS = (ProtectionLevel.NONE, ProtectionLevel.BB_CFI, ProtectionLevel.FULL_DMR)
N_TRIALS = int(os.environ.get("REPRO_MASKING_TRIALS", "300"))
SEED = 17


def _same(a, b) -> bool:
    """Equality that treats NaN as equal to NaN (flips into exponents
    of float workloads produce NaN values and NaN relative errors)."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


def _trials_equal(xs, ys) -> bool:
    return len(xs) == len(ys) and all(
        x.spec == y.spec and x.outcome is y.outcome
        and x.cycles == y.cycles and _same(x.value, y.value)
        and _same(x.rel_error, y.rel_error)
        for x, y in zip(xs, ys)
    )


def _campaign(name: str, level: ProtectionLevel) -> Campaign:
    module = build_program(name)
    if level is not ProtectionLevel.NONE:
        module, _plans = instrument_module(module, level)
    return Campaign(
        module=module, func_name=name,
        args=PROGRAMS[name].default_args, n_trials=N_TRIALS,
    )


@pytest.fixture(scope="module")
def measurements():
    rows = {}
    for name in WORKLOADS:
        for level in LEVELS:
            campaign = _campaign(name, level)
            # Untimed: the census behind these numbers is computed on
            # first read, which pruning never does.
            fm = analyze_masking(campaign.module).for_function(name)
            total = sum(fm.counts.values())
            proven = sum(
                n for cls, n in fm.counts.items() if cls in PROVEN_BENIGN
            )

            t0 = time.perf_counter()
            base = run_campaign(campaign, seed=SEED)
            t_full = time.perf_counter() - t0

            # Planning analyses the module itself, as in a campaign
            # called without a report or plan.
            t0 = time.perf_counter()
            plan = prune_masked_trials(campaign, seed=SEED)
            pruned = run_campaign_pruned(campaign, seed=SEED, plan=plan)
            t_pruned = time.perf_counter() - t0

            assert pruned.counts.as_dict() == base.counts.as_dict(), (
                f"{name}@{level.value}: pruned campaign diverged"
            )
            assert _trials_equal(pruned.trials, base.trials)

            rows[(name, level.value)] = {
                "static_proven": proven / total if total else 0.0,
                "avf_upper_bound": fm.avf_upper_bound,
                "prune_rate": plan.prune_rate,
                "t_full_s": t_full,
                "t_pruned_s": t_pruned,
                "speedup": t_full / t_pruned if t_pruned > 0 else 1.0,
            }
    return rows


def test_e17_masking_prune_rates(measurements, benchmark):
    campaign = _campaign("gcd", ProtectionLevel.FULL_DMR)
    # The full report: the dataflow plus the census it renders.
    benchmark(lambda: analyze_masking(campaign.module).as_dict())

    table = fmt_table(
        ["program", "level", "static proven", "avf ub", "prune rate",
         "full s", "pruned s", "speedup"],
        [
            [name, level, f"{m['static_proven']:.1%}",
             f"{m['avf_upper_bound']:.3f}", f"{m['prune_rate']:.1%}",
             f"{m['t_full_s']:.2f}", f"{m['t_pruned_s']:.2f}",
             f"{m['speedup']:.2f}x"]
            for (name, level), m in measurements.items()
        ],
    )
    body = table + (
        f"\n\n{N_TRIALS} register-flip trials per campaign (seed {SEED});"
        "\n'static proven' = fraction of (site, bit, window) triples the"
        "\nmasking analysis proves benign; 'prune rate' = trials actually"
        "\nskipped and reconstructed.  Pruned outcome counts asserted"
        "\nbyte-identical to the full campaign's at the same seed."
    )
    write_result("E17", "provably-benign trial pruning", body)
    write_text_atomic(
        RESULTS_DIR / "BENCH_masking.json",
        json.dumps(
            {
                "n_trials": N_TRIALS,
                "seed": SEED,
                "runs": [
                    {"program": name, "level": level, **metrics}
                    for (name, level), metrics in measurements.items()
                ],
            },
            indent=2,
        ),
    )

    for (name, level), m in measurements.items():
        assert 0.0 <= m["prune_rate"] <= 1.0
        assert 0.0 <= m["avf_upper_bound"] <= 1.0

    protected_best = max(
        m["prune_rate"]
        for (name, level), m in measurements.items()
        if level != ProtectionLevel.NONE.value
    )
    assert protected_best >= 0.20, (
        f"E17 gate: best protected prune rate {protected_best:.1%} < 20%"
    )


def test_e17_avf_bound_brackets_static_mass(measurements):
    for (_name, _level), m in measurements.items():
        assert m["avf_upper_bound"] <= 1.0 - m["static_proven"] + 1e-9
