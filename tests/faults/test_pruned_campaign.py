"""Differential tests: pruned campaigns are byte-identical to full runs.

``run_campaign_pruned`` skips trials the masking analysis proves
bit-identical to the golden run and reconstructs their records.  The
contract is *exact* equality with ``run_campaign`` at the same seed —
trial by trial, count by count — untraced and traced.  Trials are
compared bitwise (:mod:`tests.identity`).
"""

from __future__ import annotations

import pytest

from repro.analysis.masking import FunctionMasking, MaskClass, analyze_masking
from repro.core.dmr import ProtectionLevel, instrument_module
from repro.errors import FaultInjectionError
from repro.faults.campaign import (
    Campaign,
    PrunedTrials,
    _TrialPlanner,
    plan_trials,
    prune_masked_trials,
    run_campaign,
    run_campaign_pruned,
    run_golden,
)
from repro.faults.model import FaultTarget
from repro.faults.outcomes import FaultOutcome
from repro.ir.interp import Interpreter
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.obs.events import InMemorySink, Tracer
from repro.obs.query import TraceIndex
from repro.rng import DEFAULT_SEED
from repro.workloads.irprograms import PROGRAMS, build_program

from tests.identity import (
    assert_identical,
    assert_trials_identical,
    trials_digest,
)

SEED = 11
N_TRIALS = 80


def _campaign(name="gcd", level=ProtectionLevel.FULL_DMR, **kw):
    args = {"gcd": (1071, 462), "fact": (12,), "checksum": (64,)}[name]
    module = build_program(name)
    if level is not ProtectionLevel.NONE:
        module, _plans = instrument_module(module, level)
    return Campaign(
        module=module, func_name=name, args=args,
        n_trials=kw.pop("n_trials", N_TRIALS), **kw,
    )


@pytest.mark.parametrize(
    "name,level",
    [
        ("gcd", ProtectionLevel.FULL_DMR),
        ("fact", ProtectionLevel.NONE),
        ("checksum", ProtectionLevel.FULL_DMR),
    ],
)
def test_pruned_equals_full_serial(name, level):
    campaign = _campaign(name, level)
    base = run_campaign(campaign, seed=SEED)
    pruned = run_campaign_pruned(campaign, seed=SEED)
    assert_identical(pruned, base)


def test_prune_rate_is_substantial():
    campaign = _campaign("gcd", ProtectionLevel.FULL_DMR)
    plan = prune_masked_trials(campaign, seed=SEED)
    assert isinstance(plan, PrunedTrials)
    assert len(plan.trials) == campaign.n_trials
    assert plan.n_pruned == sum(1 for p in plan.trials if p.pruned)
    assert plan.prune_rate >= 0.20
    for planned in plan.trials:
        if planned.fired and planned.pruned:
            assert planned.mask_class in (
                MaskClass.DEAD, MaskClass.OVERWRITTEN, MaskClass.MASKED_BITS
            )
        if not planned.fired:
            assert planned.pruned  # unfired trials rerun the golden path


def test_pruned_trials_reconstruct_golden_records():
    campaign = _campaign("gcd", ProtectionLevel.FULL_DMR)
    plan = prune_masked_trials(campaign, seed=SEED)
    result = run_campaign_pruned(campaign, seed=SEED)
    for planned, trial in zip(plan.trials, result.trials):
        if planned.pruned:
            assert trial.outcome is FaultOutcome.BENIGN
            assert trial.rel_error == 0.0
            assert trial.value == result.golden.value
            assert trial.cycles == result.golden.cycles


def test_precomputed_plan_and_report_are_honored():
    campaign = _campaign("gcd", ProtectionLevel.FULL_DMR)
    plan = prune_masked_trials(campaign, seed=SEED)
    fresh = prune_masked_trials(campaign, seed=SEED)
    assert plan.trials == fresh.trials
    assert fresh.report is plan.report
    result = run_campaign_pruned(campaign, seed=SEED)
    base = run_campaign(campaign, seed=SEED)
    assert_trials_identical(result.trials, base.trials)


def test_plan_at_the_default_seed_runs_at_none():
    campaign = _campaign("fact", ProtectionLevel.NONE)
    plan = prune_masked_trials(campaign, seed=DEFAULT_SEED)
    assert plan.trials == prune_masked_trials(campaign, seed=None).trials
    assert_trials_identical(
        run_campaign_pruned(campaign, seed=None).trials,
        run_campaign(campaign, seed=None).trials,
    )


def test_report_and_plan_of_an_equal_ir_clone_are_accepted():
    campaign = _campaign("gcd", ProtectionLevel.FULL_DMR)
    clone = parse_module(print_module(campaign.module), name="clone")
    assert clone is not campaign.module
    base = trials_digest(run_campaign(campaign, seed=SEED))
    cloned = Campaign(module=clone, func_name=campaign.func_name,
                      args=campaign.args, n_trials=campaign.n_trials)
    plan = prune_masked_trials(cloned, seed=SEED)
    assert plan.trials == prune_masked_trials(campaign, seed=SEED).trials
    assert trials_digest(run_campaign_pruned(cloned, seed=SEED)) == base


@pytest.mark.parametrize(
    "level",
    [ProtectionLevel.NONE, ProtectionLevel.BB_CFI, ProtectionLevel.FULL_DMR],
)
def test_pruning_never_computes_the_census(monkeypatch, level):
    """Planning reads ``classify`` only; the per-(point, site, bit) census
    behind ``counts``/``class_counts``/``avf_upper_bound`` stays unpaid."""
    def census(_self):
        raise AssertionError("pruning computed the masking census")

    monkeypatch.setattr(FunctionMasking, "_census", property(census))
    campaign = _campaign("gcd", level)
    pruned = run_campaign_pruned(campaign, seed=SEED)
    assert trials_digest(pruned) == trials_digest(
        run_campaign(campaign, seed=SEED)
    )
    with pytest.raises(AssertionError, match="census"):
        analyze_masking(campaign.module).as_dict()


def test_traced_pruned_campaign_emits_identical_tallies():
    campaign = _campaign("gcd", ProtectionLevel.FULL_DMR)
    base = run_campaign(campaign, seed=SEED)
    plan = prune_masked_trials(campaign, seed=SEED)

    sink = InMemorySink()
    with Tracer(sink) as tracer:
        run_campaign_pruned(campaign, seed=SEED, tracer=tracer)
    (camp,) = TraceIndex.from_events(sink.events).segments
    assert camp.outcomes and len(camp.outcomes) == N_TRIALS
    assert camp.pruned
    assert len(camp.pruned) == plan.n_pruned
    tally = {
        outcome: sum(
            1 for o in camp.outcomes.values() if o == outcome
        )
        for outcome in {o.value for o in FaultOutcome}
    }
    for outcome, count in base.counts.as_dict().items():
        assert tally.get(outcome, 0) == count


def test_memory_target_is_rejected():
    campaign = _campaign("gcd", ProtectionLevel.FULL_DMR)
    campaign = Campaign(
        module=campaign.module, func_name=campaign.func_name,
        args=campaign.args, n_trials=8, target=FaultTarget.MEMORY,
    )
    with pytest.raises(FaultInjectionError):
        prune_masked_trials(campaign, seed=SEED)


def test_prune_rate_properties_on_empty_plan():
    campaign = _campaign("gcd", ProtectionLevel.FULL_DMR, n_trials=0)
    plan = prune_masked_trials(campaign, seed=SEED)
    assert plan.trials == []
    assert plan.n_pruned == 0
    assert plan.prune_rate == 0.0


#: campaign-pruned's program x protection-level cells.
PRUNED_CELLS = [
    (name, level)
    for name in ("fact", "gcd", "checksum", "dot", "horner", "fmul_chain")
    for level in ("none", "bb-cfi", "full-dmr")
]


@pytest.mark.parametrize("name,level", PRUNED_CELLS)
def test_planner_resolves_as_when_called_at_every_index(
    name, level, monkeypatch
):
    # The replay batches every block that ends before the planner's
    # next_index; a planner consulted at every index must resolve every
    # trial at the same point, site and bit.
    module = build_program(name)
    if level != "none":
        module, _plans = instrument_module(module, ProtectionLevel(level))
    campaign = Campaign(
        module=module, func_name=name, args=PROGRAMS[name].default_args,
        n_trials=100,
    )
    golden = run_golden(campaign)
    batched = []
    run_batched = Interpreter._run_batched

    def counting(self, frame, code):
        batched.append(frame.block)
        return run_batched(self, frame, code)

    monkeypatch.setattr(Interpreter, "_run_batched", counting)
    for seed in (SEED, SEED + 1):
        planners = [
            _TrialPlanner(module, [
                (int(planned.rng.integers(golden.instructions)), planned.rng)
                for planned in plan_trials(campaign, seed)
            ])
            for _ in range(2)
        ]
        every_step = planners[1]
        for hook in (planners[0], lambda *args: every_step(*args)):
            replay = Interpreter(
                module, cost_model=campaign.cost_model, fuel=campaign.fuel,
                step_hook=hook,
            ).run(name, list(campaign.args))
            assert replay.ok
            assert replay.instructions == golden.instructions
        assert planners[0].next_index is None
        assert planners[0].resolutions == planners[1].resolutions
    if name in ("checksum", "dot"):
        # Golden runs 708-2,636 instructions: 100 requests leave gaps.
        assert batched
