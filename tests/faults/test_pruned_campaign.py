"""Differential tests: pruned campaigns are byte-identical to full runs.

``run_campaign_pruned`` skips trials the masking analysis proves
bit-identical to the golden run and reconstructs their records.  The
contract is *exact* equality with ``run_campaign`` at the same seed —
trial by trial, count by count — untraced and traced.  Trials are
compared bitwise (:mod:`tests.identity`).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import repro.faults.campaign as engine
from repro.analysis.masking import FunctionMasking, MaskClass, analyze_masking
from repro.core.dmr import ProtectionLevel, instrument_module
from repro.errors import FaultInjectionError
from repro.faults.campaign import (
    Campaign,
    PrunedTrials,
    golden_sites,
    prune_masked_trials,
    run_campaign,
    run_campaign_pruned,
    run_golden,
)
from repro.faults.model import FaultSpec, FaultTarget
from repro.faults.outcomes import FaultOutcome
from repro.faults.seu import RegisterFaultInjector
from repro.ir.interp import Interpreter
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.ir.refinterp import ReferenceInterpreter
from repro.ir.values import Constant
from repro.obs.events import InMemorySink, Injection, Tracer
from repro.obs.query import TraceIndex
from repro.rng import DEFAULT_SEED, TrialStream, trial_streams
from repro.workloads.irprograms import PROGRAMS, build_program

from tests.identity import (
    assert_identical,
    assert_trials_identical,
    stream_digest,
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


class _Fired(Exception):
    """Ends a reference run once its injector has fired."""


class _UntilFired:
    """Calls ``injector`` before every body instruction and records where
    it fires — (function, block, index into ``block.body``) — then ends
    the run: what the fault does afterwards is no part of its site."""

    def __init__(self, injector: RegisterFaultInjector) -> None:
        self.injector = injector
        self.point = None

    def __call__(self, interp, frame, instr, dynamic_index) -> None:
        self.injector(interp, frame, instr, dynamic_index)
        if self.injector.fired:
            body = frame.block.body
            position = next(i for i, x in enumerate(body) if x is instr)
            self.point = (frame.func.name, frame.block.name, position)
            raise _Fired


def _checked_indices(campaign: Campaign, instructions: int) -> list[int]:
    """Every index of a short golden run; of a long one, 0, each phi index
    up to the first block re-entry (the first loop pass), the last body
    instruction, the last index and a stride."""
    if instructions <= 200:
        return list(range(instructions))
    hooked: list[tuple[int, object]] = []
    ReferenceInterpreter(
        campaign.module, cost_model=campaign.cost_model, fuel=instructions,
        step_hook=lambda _i, frame, instr, d: hooked.append(
            (d, frame.block, instr is frame.block.body[0])
        ),
    ).run(campaign.func_name, list(campaign.args))
    entered, reentry = set(), instructions
    for d, block, first in hooked:
        if first and block in entered:
            reentry = d
            break
        entered.add(block)
    at_body = {d for d, _block, _first in hooked}
    phis = [d for d in range(reentry) if d not in at_body]
    assert phis, "the first loop pass has no phi"
    return sorted({
        0, *phis, max(at_body), instructions - 1,
        *range(0, instructions, 37),
    })


@pytest.mark.parametrize("name,level", PRUNED_CELLS)
def test_site_table_resolves_as_the_injector_fires(name, level):
    """The table's lookup equals the register injector fired on the
    reference interpreter: same firing index and point, site, bit, and
    the same stream position afterwards."""
    module = build_program(name)
    if level != "none":
        module, _plans = instrument_module(module, ProtectionLevel(level))
    campaign = Campaign(
        module=module, func_name=name, args=PROGRAMS[name].default_args,
        n_trials=100,
    )
    golden = run_golden(campaign)
    sites = golden_sites(campaign, golden)
    assert len(sites.fire) == golden.instructions
    indices = _checked_indices(campaign, golden.instructions)
    for d, stream in zip(indices, trial_streams(SEED, len(indices))):
        twin = TrialStream(
            stream.state, stream.inc, stream.has_uint32, stream.uinteger
        )
        watch = _UntilFired(RegisterFaultInjector(
            FaultSpec(FaultTarget.REGISTER, d), seed=twin
        ))
        with pytest.raises(_Fired) if sites.fire[d] >= 0 else _no_raise():
            ReferenceInterpreter(
                module, cost_model=campaign.cost_model,
                fuel=golden.instructions, step_hook=watch,
            ).run(name, list(campaign.args))
        fault = sites.fault(d, stream)
        expected = (
            None if watch.point is None
            else (watch.injector.resolved, watch.point)
        )
        assert fault == expected, f"{name}@{level} index {d}"
        assert (stream.state, stream.has_uint32, stream.uinteger) == (
            twin.state, twin.has_uint32, twin.uinteger
        ), f"{name}@{level} index {d}: streams diverged"


class _no_raise:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


#: An entry that calls a helper: some firing points are the callee's.
CALLING = """\
func @square(%x: i64) -> i64 {
^entry:
  %sq = mul i64 %x, %x
  ret i64 %sq
}

func @sumsq(%n: i64) -> i64 {
^entry:
  %cmp = icmp gt i64 %n, 0
  br %cmp, ^loop, ^done
^loop:
  %i = phi i64 [0, ^entry], [%next, ^loop]
  %acc = phi i64 [0, ^entry], [%acc2, ^loop]
  %s = call i64 @square(i64 %i)
  %acc2 = add i64 %acc, %s
  %next = add i64 %i, 1
  %more = icmp lt i64 %next, %n
  br %more, ^loop, ^done
^done:
  %res = phi i64 [0, ^entry], [%acc2, ^loop]
  ret i64 %res
}
"""

#: A no-argument entry: its first instructions see an empty env.
NO_ARGS = """\
func @count() -> i64 {
^entry:
  jmp ^loop
^loop:
  %i = phi i64 [0, ^entry], [%next, ^loop]
  %next = add i64 %i, 1
  %more = icmp lt i64 %next, 12
  br %more, ^loop, ^done
^done:
  ret i64 %next
}
"""


def _events_as_full(records):
    """A pruned stream's records with each injection's ``pruned`` flag
    cleared: what the unpruned campaign emits."""
    return [
        (seq, replace(event, pruned=False) if isinstance(event, Injection)
         else event)
        for seq, event in records
    ]


def _assert_pruned_equals_full(campaign: Campaign, seed) -> None:
    """Records and traced stream of the pruned campaign equal the full
    one's; a Generator ``seed`` is rebuilt for every run.  Golden is run
    first, so both streams report a golden-cache hit."""
    def fresh():
        return np.random.default_rng(seed.bit_generator.seed_seq.entropy) \
            if isinstance(seed, np.random.Generator) else seed

    run_golden(campaign)
    full_sink, pruned_sink = InMemorySink(), InMemorySink()
    full = run_campaign(campaign, seed=fresh(), tracer=Tracer(full_sink))
    pruned = run_campaign_pruned(
        campaign, seed=fresh(), tracer=Tracer(pruned_sink)
    )
    assert_identical(pruned, full)
    assert_identical(run_campaign_pruned(campaign, seed=fresh()), full)
    assert stream_digest(_events_as_full(pruned_sink.records)) == \
        stream_digest(full_sink.records)
    assert any(e.pruned for e in pruned_sink.events
               if isinstance(e, Injection))


def test_pruned_equals_full_when_faults_fire_in_a_callee():
    module = parse_module(CALLING, name="calling")
    campaign = Campaign(module=module, func_name="sumsq", args=(6,),
                        n_trials=120)
    golden = run_golden(campaign)
    sites = golden_sites(campaign, golden)
    fired_in = {sites.points[sites.point[k]][0]
                for k in range(len(sites.index))}
    assert fired_in == {"sumsq", "square"}
    _assert_pruned_equals_full(campaign, SEED)


def test_pruned_equals_full_at_a_generator_seed():
    campaign = _campaign("gcd", ProtectionLevel.FULL_DMR)
    _assert_pruned_equals_full(campaign, np.random.default_rng(SEED))


def test_pruned_equals_full_when_the_entry_env_starts_empty():
    module = parse_module(NO_ARGS, name="no-args")
    campaign = Campaign(module=module, func_name="count", args=(),
                        n_trials=120)
    golden = run_golden(campaign)
    sites = golden_sites(campaign, golden)
    # The entry's jmp sees no name; index 1 is the header's phi.
    assert sites.index[0] == 2
    assert sites.fire[0] == sites.fire[1] == sites.fire[2] == 0
    _assert_pruned_equals_full(campaign, SEED)


def test_a_golden_run_records_its_site_table_once(monkeypatch):
    """The first pruned campaign over a module runs golden once more to
    record the table; the next plans without running anything."""
    campaign = _campaign("checksum", ProtectionLevel.BB_CFI)
    runs_while_planning = []
    planning = [False]
    plan, run = engine.prune_masked_trials, Interpreter.run

    def counting_plan(*args, **kwargs):
        planning[0] = True
        try:
            return plan(*args, **kwargs)
        finally:
            planning[0] = False

    def counting_run(self, *args):
        if planning[0]:
            runs_while_planning[-1] += 1
        return run(self, *args)

    monkeypatch.setattr(engine, "prune_masked_trials", counting_plan)
    monkeypatch.setattr(Interpreter, "run", counting_run)
    for seed in (SEED, SEED + 1):
        runs_while_planning.append(0)
        run_campaign_pruned(campaign, seed=seed)
    assert runs_while_planning == [1, 0]


def test_a_module_changed_in_place_gets_a_new_site_table():
    campaign = _campaign("fact", ProtectionLevel.NONE)
    prune_masked_trials(campaign, seed=SEED)
    stale = golden_sites(campaign, run_golden(campaign))
    # fact's accumulator starts at 1: make it start at 3, in place.
    phi = next(
        instr for block in campaign.module.function("fact").blocks
        for instr in block.phis
        if any(isinstance(op, Constant) and op.value == 1
               for op in instr.operands)
    )
    position = next(
        i for i, op in enumerate(phi.operands)
        if isinstance(op, Constant) and op.value == 1
    )
    phi.operands[position] = Constant(phi.type, 3)
    plan = prune_masked_trials(campaign, seed=SEED)
    assert golden_sites(campaign, plan.golden) is not stale
    clone = Campaign(
        module=parse_module(print_module(campaign.module), name="clone"),
        func_name="fact", args=campaign.args, n_trials=campaign.n_trials,
    )
    assert plan.trials == prune_masked_trials(clone, seed=SEED).trials
    assert_trials_identical(
        run_campaign_pruned(campaign, seed=SEED).trials,
        run_campaign(clone, seed=SEED).trials,
    )
