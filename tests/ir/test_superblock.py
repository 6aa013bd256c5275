"""Batched block execution: the call rule and counter exactness.

:class:`repro.ir.interp.Interpreter` runs a block batched — fuel and
cycles charged in bulk — when it has no call, cannot cross the fuel
ceiling and the step hook is quiescent.  These tests pin the call rule,
prove the batched tier actually runs (per-step work is counted through
``Interpreter._run_block``), and prove the bulk accounting is *exact*
against :class:`repro.ir.refinterp.ReferenceInterpreter` — same
instruction count, cycle count, fuel-exhaustion point and trap position
on every workload, with and without step hooks in the loop.
"""

import math

import pytest

from repro.core.dmr import ProtectionLevel, instrument_module
from repro.faults.model import FaultSpec, FaultTarget
from repro.faults.seu import RegisterFaultInjector
from repro.ir.builder import IRBuilder
from repro.ir.function import Function
from repro.ir.instructions import Opcode
from repro.ir.interp import Interpreter
from repro.ir.module import Module
from repro.ir.refinterp import ReferenceInterpreter
from repro.ir.types import INT64
from repro.recover.checkpoint import (
    CheckpointHook,
    CheckpointManager,
    resume_from_checkpoint,
)
from repro.rng import make_rng
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


def _chain_module(n_links: int = 4) -> Module:
    """entry -> b1 -> ... -> bN, a pure jmp chain of call-free blocks."""
    module = Module("chain")
    func = Function("f", [("a", INT64)], INT64)
    module.add_function(func)
    b = IRBuilder(func)
    blocks = [func.add_block("entry")]
    blocks += [func.add_block(f"b{i}") for i in range(1, n_links + 1)]
    value = func.args[0]
    for i, block in enumerate(blocks):
        b.set_block(block)
        value = b.add(value, b.i64(i + 1))
        if block is blocks[-1]:
            b.ret(value)
        else:
            b.jmp(blocks[i + 1])
    return module


def _case(name: str) -> tuple[Module, str, list]:
    """(module, entry, args) of a workload program or the jmp chain."""
    if name == "chain":
        return _chain_module(), "f", [5]
    return build_program(name), name, list(PROGRAMS[name].default_args)


def _has_call(block) -> bool:
    return any(instr.opcode is Opcode.CALL for instr in block.body)


@pytest.fixture
def per_step_blocks(monkeypatch):
    """``(block, dynamic index at entry)`` of every per-step block run."""
    seen = []
    run_block = Interpreter._run_block

    def counting(self, frame, skip_phis=False):
        seen.append((frame.block, self.instructions))
        return run_block(self, frame, skip_phis)

    monkeypatch.setattr(Interpreter, "_run_block", counting)
    return seen


class TestFormationRules:
    def test_call_blocks_are_not_batched(self, per_step_blocks):
        # leaf: g(x) = x + 1; caller: a jmp chain whose middle block calls g.
        module = Module("callmod")
        leaf = Function("g", [("x", INT64)], INT64)
        module.add_function(leaf)
        lb = IRBuilder(leaf)
        lb.set_block(leaf.add_block("entry"))
        lb.ret(lb.add(leaf.args[0], lb.i64(1)))

        func = Function("f", [("a", INT64)], INT64)
        module.add_function(func)
        b = IRBuilder(func)
        entry = func.add_block("entry")
        mid = func.add_block("mid")
        tail = func.add_block("tail")
        b.set_block(entry)
        x = b.add(func.args[0], b.i64(2))
        b.jmp(mid)
        b.set_block(mid)
        y = b.call("g", [x], INT64)
        b.jmp(tail)
        b.set_block(tail)
        b.ret(b.add(y, x))

        cache = {}
        result = Interpreter(module, code_cache=cache).run("f", [5])
        assert result.value == 5 + 2 + 1 + 5 + 2
        _assert_same_execution(
            result, ReferenceInterpreter(module).run("f", [5])
        )
        assert len(cache) == 4  # f's three blocks and g's entry
        assert [blk for blk, code in cache.items() if code.has_call] == [mid]
        # Only the call block ran per step; every other block batched.
        assert [blk for blk, _start in per_step_blocks] == [mid]


class TestBatchedTierRuns:
    @pytest.mark.parametrize("level", ["none", "full-dmr"])
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_unhooked_run_steps_only_call_blocks(
        self, name, level, per_step_blocks
    ):
        module = build_program(name)
        if level != "none":
            module, _plans = instrument_module(module, ProtectionLevel(level))
        args = list(PROGRAMS[name].default_args)
        assert Interpreter(module).run(name, args).ok
        assert [
            block.name for block, _start in per_step_blocks
            if not _has_call(block)
        ] == []


class TestResumeRunsBatched:
    @pytest.mark.parametrize("name", ["orbit", "dot"])
    def test_resume_batches_every_later_block(
        self, name, per_step_blocks, monkeypatch
    ):
        # Only the resumed block runs per step (its phis were applied
        # before the checkpoint); the rest of the run is the hot loop.
        module = build_program(name)
        args = list(PROGRAMS[name].default_args)
        straight = Interpreter(module).run(name, args)
        manager = CheckpointManager(capacity=8)
        assert Interpreter(
            module, step_hook=CheckpointHook(manager, 100)
        ).run(name, args).ok
        batched = []
        run_batched = Interpreter._run_batched

        def counting(self, frame, code):
            batched.append(frame.block)
            return run_batched(self, frame, code)

        monkeypatch.setattr(Interpreter, "_run_batched", counting)
        for skip in range(len(manager)):
            ckpt = manager.latest_good(skip=skip)
            per_step_blocks.clear()
            batched.clear()
            resumed = resume_from_checkpoint(module, ckpt)
            _assert_same_execution(resumed, straight)
            block_name = ckpt.state()[1]
            assert [block.name for block, _start in per_step_blocks] \
                == [block_name]
            # Every block after the resumed one, up to the return.
            blocks = (
                straight.instructions - ckpt.instructions
                - len(module.function(name).block(block_name).body)
            )
            assert batched and sum(
                len(block.instructions) for block in batched
            ) == blocks


class TestCounterExactness:
    @pytest.mark.parametrize("name", sorted(PROGRAMS) + ["chain"])
    def test_batched_matches_reference(self, name):
        module, entry, args = _case(name)
        fast = Interpreter(module).run(entry, args)
        ref = ReferenceInterpreter(module).run(entry, args)
        _assert_same_execution(fast, ref)

    @pytest.mark.parametrize("name", ["isort", "orbit", "collatz", "chain"])
    def test_fuel_exhaustion_inside_superblock_is_exact(self, name):
        module, entry, args = _case(name)
        total = ReferenceInterpreter(module).run(entry, args).instructions
        # Sweep budgets that land mid-block; HANG must trip at the same
        # dynamic instruction either way.
        for fuel in (1, 2, 3, 5, total // 3, total - 1):
            fast = Interpreter(module, fuel=fuel).run(entry, args)
            ref = ReferenceInterpreter(module, fuel=fuel).run(entry, args)
            _assert_same_execution(fast, ref)
            assert fast.status.value == "hang"

    @pytest.mark.parametrize("name", ["isort", "orbit"])
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_hook_window_batching_matches_reference(
        self, name, seed, per_step_blocks
    ):
        # The injector's next_index lets blocks before the injection
        # window run batched; the trajectory must still match the
        # unbatched reference exactly.
        module = build_program(name)
        args = list(PROGRAMS[name].default_args)
        golden = ReferenceInterpreter(module).run(name, args)
        index = int(make_rng(seed).integers(golden.instructions))
        spec = FaultSpec(target=FaultTarget.REGISTER, dynamic_index=index)
        fuel = golden.instructions * 50 + 2_000

        injector = RegisterFaultInjector(spec, seed=make_rng(seed))
        fast = Interpreter(
            module, fuel=fuel, step_hook=injector,
        ).run(name, args)
        ref = ReferenceInterpreter(
            module, fuel=fuel,
            step_hook=RegisterFaultInjector(spec, seed=make_rng(seed)),
        ).run(name, args)
        _assert_same_execution(fast, ref)

        # Per step ran only call blocks, blocks that could cross the fuel
        # ceiling, and blocks overlapping [drawn index, firing index].
        fired_at = (
            injector.resolved.dynamic_index if injector.fired else math.inf
        )
        assert per_step_blocks
        for block, start in per_step_blocks:
            end = start + len(block.instructions)
            assert (
                _has_call(block)
                or end > fuel
                or (start <= fired_at and end > index)
            ), (block.name, start, index, fired_at)

    def test_division_trap_inside_chain_is_exact(self):
        module = Module("trap")
        func = Function("f", [("a", INT64)], INT64)
        module.add_function(func)
        b = IRBuilder(func)
        entry = func.add_block("entry")
        body = func.add_block("body")
        b.set_block(entry)
        x = b.add(func.args[0], b.i64(1))
        b.jmp(body)
        b.set_block(body)
        y = b.sdiv(x, func.args[0])  # traps when a == 0
        b.ret(y)
        for arg in (0, 7):
            fast = Interpreter(module).run("f", [arg])
            ref = ReferenceInterpreter(module).run("f", [arg])
            _assert_same_execution(fast, ref)
