"""The hang shortcut: a provably spinning counted loop ends in closed form.

When a hot frame reaches a loop header over its back edge with the step
hook absent or fired, :class:`repro.ir.interp.Interpreter` asks the
loop's :class:`repro.ir.loops.CountedLoop` whether every pass up to the
fuel ceiling keeps to the loop's path; if so it charges the HANG record
the per-step loop would reach and stops.  These tests pin that the
shortcut runs where it should (passes are counted through
``Interpreter._run_batched`` / ``_run_block``), stays away from loops it
cannot prove, and that every record it charges equals
:class:`repro.ir.refinterp.ReferenceInterpreter`'s — fuel exhaustion on
every offset of a loop's path, and every HANG trial of E17's loop cells.
"""

import math

import pytest

from repro.core.dmr import ProtectionLevel, instrument_module
from repro.faults.campaign import Campaign, run_campaign, trial_fuel_for
from repro.faults.model import FaultSpec, FaultTarget
from repro.faults.outcomes import FaultOutcome
from repro.faults.seu import RegisterFaultInjector
from repro.ir.builder import IRBuilder
from repro.ir.costmodel import CORTEX_A53
from repro.ir.function import Function
from repro.ir.instructions import Predicate
from repro.ir.interp import ExecutionStatus, Interpreter
from repro.ir.loops import CountedLoop, counted_loops
from repro.ir.module import Module
from repro.ir.refinterp import ReferenceInterpreter
from repro.ir.types import INT32, INT64
from repro.workloads.irprograms import PROGRAMS, build_program


def _values_equal(a, b):
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return True
    return a == b


def _assert_same_execution(fast, ref):
    assert fast.status == ref.status
    assert _values_equal(fast.value, ref.value), (fast.value, ref.value)
    assert fast.instructions == ref.instructions
    assert fast.cycles == ref.cycles
    assert fast.trap_reason == ref.trap_reason


def _program(name: str, level: str) -> Module:
    module = build_program(name)
    if level != "none":
        module, _plans = instrument_module(module, ProtectionLevel(level))
    return module


@pytest.fixture
def block_runs(monkeypatch):
    """``(block, hook fired?)`` of every block the hot loop ran."""
    runs = []
    run_batched = Interpreter._run_batched
    run_block = Interpreter._run_block

    def fired(interp):
        return bool(getattr(interp.step_hook, "fired", False))

    def batched(self, frame, code):
        runs.append((frame.block, fired(self)))
        return run_batched(self, frame, code)

    def per_step(self, frame, skip_phis=False):
        runs.append((frame.block, fired(self)))
        return run_block(self, frame, skip_phis)

    monkeypatch.setattr(Interpreter, "_run_batched", batched)
    monkeypatch.setattr(Interpreter, "_run_block", per_step)
    return runs


def _passes(runs, header, after_fire=False) -> int:
    return sum(
        1 for block, fired in runs
        if block is header and (fired or not after_fire)
    )


class TestFlippedBoundHangs:
    @pytest.mark.parametrize("name,level", [
        ("dot", "none"), ("fact", "full-dmr"), ("orbit", "full-dmr"),
    ])
    def test_hang_ends_within_two_passes_of_the_fault(
        self, name, level, block_runs
    ):
        module = _program(name, level)
        func = module.function(name)
        args = list(PROGRAMS[name].default_args)
        golden = ReferenceInterpreter(module).run(name, args)
        index = golden.instructions // 2  # inside the loop
        fuel = golden.instructions * 10
        spec = FaultSpec(
            target=FaultTarget.REGISTER, dynamic_index=index,
            location="n", bit=60,
        )

        injector = RegisterFaultInjector(spec)
        fast = Interpreter(module, fuel=fuel, step_hook=injector).run(
            name, args
        )
        assert fast.status is ExecutionStatus.HANG
        header = func.block("loop")
        # The pass in progress when the fault fired, plus at most one.
        assert _passes(block_runs, header, after_fire=True) <= 1

        ref = ReferenceInterpreter(
            module, fuel=fuel, step_hook=RegisterFaultInjector(spec)
        ).run(name, args)
        _assert_same_execution(fast, ref)


class TestExhaustionOffsets:
    @pytest.mark.parametrize("name,level", [
        ("fact", "none"), ("fact", "full-dmr"), ("dot", "bb-cfi"),
        ("horner", "full-dmr"), ("fib", "scc-cfi"), ("orbit", "none"),
    ])
    def test_fuel_sweep_over_one_pass_matches_reference(
        self, name, level, block_runs
    ):
        # Fault-free runs whose fuel runs out mid-loop: the loop is
        # provably still running, so the shortcut charges the hang.  W
        # consecutive budgets land the exhaustion on every instruction
        # of the path, phis included.
        module = _program(name, level)
        func = module.function(name)
        header = func.block("loop")
        weight = counted_loops(func, CORTEX_A53.cost)[header].weight
        args = list(PROGRAMS[name].default_args)
        base = ReferenceInterpreter(module).run(name, args).instructions // 2
        for fuel in range(base, base + weight):
            block_runs.clear()
            fast = Interpreter(module, fuel=fuel).run(name, args)
            ref = ReferenceInterpreter(module, fuel=fuel).run(name, args)
            assert fast.status is ExecutionStatus.HANG
            _assert_same_execution(fast, ref)
            assert _passes(block_runs, header) == 1, fuel


def _loop_module(kind: str) -> tuple[Module, list[int]]:
    """``f(n)``: a counted loop of ``n`` passes with one ``kind`` of body.

    ``plain`` is provable; ``load``, ``call`` and ``sdiv`` put an
    instruction the shortcut refuses in the loop.  ``wrap`` counts an i32
    up from 5 below its maximum while ``i + 1 > 0``: unbounded integers
    would never leave, the wrapping ones leave after six passes.
    """
    module = Module(f"loop_{kind}")
    type_ = INT32 if kind == "wrap" else INT64
    if kind == "call":
        leaf = Function("g", [("x", INT64)], INT64)
        module.add_function(leaf)
        lb = IRBuilder(leaf)
        lb.set_block(leaf.add_block("entry"))
        lb.ret(lb.add(leaf.args[0], lb.i64(3)))
    func = Function("f", [("n", type_)], type_)
    module.add_function(func)
    b = IRBuilder(func)
    entry = func.add_block("entry")
    loop = func.add_block("loop")
    done = func.add_block("done")
    b.set_block(entry)
    cell = b.alloc(b.i64(1)) if kind == "load" else None
    b.jmp(loop)
    b.set_block(loop)
    i = b.phi(type_, name="i")
    acc = b.phi(type_, name="acc")
    if kind == "load":
        term = b.load(cell, INT64)
    elif kind == "call":
        term = b.call("g", [i], INT64)
    elif kind == "sdiv":
        term = b.sdiv(i, b.i64(3))
    else:
        term = i
    acc2 = b.add(acc, term)
    i2 = b.add(i, b.const(type_, 1))
    pred = Predicate.GT if kind == "wrap" else Predicate.LT
    b.br(b.icmp(pred, i2, func.args[0]), loop, done)
    start = INT32.signed_max - 5 if kind == "wrap" else 0
    i.add_phi_incoming(b.const(type_, start), entry)
    i.add_phi_incoming(i2, loop)
    acc.add_phi_incoming(b.const(type_, 0), entry)
    acc.add_phi_incoming(acc2, loop)
    b.set_block(done)
    res = b.phi(type_, name="res")
    res.add_phi_incoming(acc2, loop)
    b.ret(res)
    return module, [0 if kind == "wrap" else 10**9]


class TestUnprovableLoops:
    @pytest.mark.parametrize(
        "kind", ["plain", "load", "call", "sdiv", "wrap"]
    )
    def test_only_provable_loops_are_shortcut(self, kind, block_runs):
        module, args = _loop_module(kind)
        header = module.function("f").block("loop")
        fuel = 3_000
        fast = Interpreter(module, fuel=fuel).run("f", args)
        ref = ReferenceInterpreter(module, fuel=fuel).run("f", args)
        _assert_same_execution(fast, ref)
        passes = _passes(block_runs, header)
        if kind == "wrap":
            assert fast.ok and passes == 6
        elif kind == "plain":
            assert fast.status is ExecutionStatus.HANG and passes == 1
        else:
            # Stepped to the fuel, pass after pass.
            assert fast.status is ExecutionStatus.HANG and passes > 100


class TestE17HangTrials:
    @pytest.mark.parametrize("level", ["none", "bb-cfi", "full-dmr"])
    @pytest.mark.parametrize("name", ["fact", "dot", "horner"])
    def test_every_hang_trial_equals_reference(
        self, name, level, monkeypatch
    ):
        proofs = []
        spins = CountedLoop.spins

        def recording(self, env, passes):
            proofs.append(spins(self, env, passes))
            return proofs[-1]

        monkeypatch.setattr(CountedLoop, "spins", recording)
        campaign = Campaign(
            module=_program(name, level), func_name=name,
            args=PROGRAMS[name].default_args, n_trials=300,
        )
        result = run_campaign(campaign, seed=17)
        fuel = trial_fuel_for(campaign, result.golden)
        hangs = [
            t for t in result.trials if t.outcome is FaultOutcome.HANG
        ]
        assert hangs
        # The shortcut ended every one of them.
        assert sum(proofs) == len(hangs)
        for trial in hangs:
            ref = ReferenceInterpreter(
                campaign.module, fuel=fuel,
                step_hook=RegisterFaultInjector(trial.spec),
            ).run(name, list(campaign.args))
            assert ref.status is ExecutionStatus.HANG
            assert ref.cycles == trial.cycles, trial.spec
