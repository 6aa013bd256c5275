"""E4 — tunable DMR: overhead vs detection trade-off across levels.

For each protection level, measures cycle overhead and the outcome mix of
a register fault-injection campaign over a mixed workload set.  Expected
shape: overhead and detection rate rise monotonically with the level, full
DMR costs >= 2x, and the intermediate levels buy most of the detection at a
fraction of the cost (the paper's tunability argument).
"""

import numpy as np
import pytest

from benchmarks._util import fmt_table, write_result
from repro import PROGRAMS, ProtectedProgram, build_program
from repro.core.dmr.levels import ALL_LEVELS, ProtectionLevel
from repro.faults.outcomes import FaultOutcome

WORKLOADS = ("fact", "collatz", "checksum", "horner")
N_TRIALS = 120


@pytest.fixture(scope="module")
def tradeoff():
    per_level = {}
    for level in ALL_LEVELS:
        overheads, detected, sdc, benign, crash_hang = [], 0, 0, 0, 0
        duplicated = []
        for name in WORKLOADS:
            module = build_program(name)
            prog = ProtectedProgram(module, name, level)
            args = PROGRAMS[name].default_args
            overheads.append(prog.overhead(args))
            duplicated.append(prog.plan.n_duplicated)
            counts = prog.campaign(args, n_trials=N_TRIALS, seed=99).counts
            detected += counts.counts[FaultOutcome.DETECTED]
            sdc += counts.counts[FaultOutcome.SDC]
            benign += counts.counts[FaultOutcome.BENIGN]
            crash_hang += (
                counts.counts[FaultOutcome.CRASH]
                + counts.counts[FaultOutcome.HANG]
            )
        total_harm = detected + sdc
        per_level[level] = {
            "overhead": float(np.mean(overheads)),
            "detected": detected,
            "sdc": sdc,
            "benign": benign,
            "crash_hang": crash_hang,
            "detection_rate": detected / total_harm if total_harm else 1.0,
            "duplicated": sum(duplicated),
        }
    return per_level


def test_e4_tradeoff_table(tradeoff, benchmark):
    module = build_program("fact")
    benchmark(
        ProtectedProgram, module, "fact", ProtectionLevel.BB_CFI
    )

    rows = []
    for level in ALL_LEVELS:
        d = tradeoff[level]
        rows.append([
            level.value, f"{d['overhead']:.2f}x", str(d["duplicated"]),
            str(d["detected"]), str(d["sdc"]),
            f"{d['detection_rate'] * 100:.0f}%",
        ])
    body = fmt_table(
        ["level", "overhead", "dup instrs", "detected", "SDC",
         "det rate"], rows
    )
    body += (
        f"\n\n{len(WORKLOADS)} workloads x {N_TRIALS} register faults each"
    )
    write_result("E4", "tunable DMR trade-off", body)

    overheads = [tradeoff[lv]["overhead"] for lv in ALL_LEVELS]
    rates = [tradeoff[lv]["detection_rate"] for lv in ALL_LEVELS]
    sdcs = [tradeoff[lv]["sdc"] for lv in ALL_LEVELS]
    # Monotone overhead; detection improves from NONE to FULL.
    assert overheads == sorted(overheads)
    assert rates[0] == 0.0
    assert rates[-1] > 0.7
    assert sdcs[-1] < sdcs[0] * 0.4
    # Full DMR is at least ~2x (the industry-baseline cost the paper cites).
    assert tradeoff[ProtectionLevel.FULL_DMR]["overhead"] >= 1.9
    # Tunability: BB-CFI buys real detection for well under full-DMR cost.
    assert tradeoff[ProtectionLevel.BB_CFI]["detection_rate"] > 0.25
    assert (
        tradeoff[ProtectionLevel.BB_CFI]["overhead"]
        < tradeoff[ProtectionLevel.FULL_DMR]["overhead"]
    )
