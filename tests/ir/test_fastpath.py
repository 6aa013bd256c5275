"""Fast-path interpreter vs the reference dispatch loop.

:class:`repro.ir.interp.Interpreter` translates each basic block into
compiled Python functions generated from its IR;
:class:`repro.ir.refinterp.ReferenceInterpreter` keeps the original
instruction-at-a-time dispatch loop as a differential oracle.  The two
must agree *exactly* — value, dynamic instruction count, cycle count,
status, block trace — on every workload program, with and without fault
injectors in the loop.
"""

import math

import pytest

from repro.faults.model import FaultSpec, FaultTarget
from repro.faults.seu import HeapFaultInjector, RegisterFaultInjector
from repro.ir.block import BasicBlock
from repro.ir.interp import Interpreter
from repro.ir.refinterp import ReferenceInterpreter
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


class TestDifferentialCleanRuns:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_matches_reference_on_workload(self, name):
        module = build_program(name)
        args = list(PROGRAMS[name].default_args)
        fast = Interpreter(module, record_trace=True).run(name, args)
        ref = ReferenceInterpreter(module, record_trace=True).run(name, args)
        _assert_same_execution(fast, ref)
        assert fast.block_trace == ref.block_trace

    def test_shared_code_cache_is_reusable(self):
        module = build_program("fib")
        args = list(PROGRAMS["fib"].default_args)
        cache = {}
        first = Interpreter(module, code_cache=cache).run("fib", args)
        warmed = dict(cache)
        second = Interpreter(module, code_cache=cache).run("fib", args)
        assert warmed
        assert all(isinstance(key, BasicBlock) for key in cache)
        # Fully warm: no recompilation, the very same compiled objects.
        assert cache.keys() == warmed.keys()
        assert all(cache[key] is code for key, code in warmed.items())
        assert _values_equal(first.value, second.value)
        assert first.cycles == second.cycles


class TestDifferentialUnderFaults:
    @pytest.mark.parametrize("name", ["fact", "isort", "orbit"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_register_fault_trajectories_match(self, name, seed):
        module = build_program(name)
        args = list(PROGRAMS[name].default_args)
        golden = ReferenceInterpreter(module).run(name, args)
        index = int(make_rng(seed).integers(golden.instructions))
        spec = FaultSpec(target=FaultTarget.REGISTER, dynamic_index=index)

        fast = Interpreter(
            module,
            fuel=golden.instructions * 50 + 2_000,
            step_hook=RegisterFaultInjector(spec, seed=make_rng(seed)),
        ).run(name, args)
        ref = ReferenceInterpreter(
            module,
            fuel=golden.instructions * 50 + 2_000,
            step_hook=RegisterFaultInjector(spec, seed=make_rng(seed)),
        ).run(name, args)
        _assert_same_execution(fast, ref)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_heap_fault_trajectories_match(self, seed):
        module = build_program("checksum")
        args = list(PROGRAMS["checksum"].default_args)
        golden = ReferenceInterpreter(module).run("checksum", args)
        index = int(make_rng(seed).integers(golden.instructions))
        spec = FaultSpec(target=FaultTarget.MEMORY, dynamic_index=index)

        fast = Interpreter(
            module,
            fuel=golden.instructions * 50 + 2_000,
            step_hook=HeapFaultInjector(spec, seed=make_rng(seed)),
        ).run("checksum", args)
        ref = ReferenceInterpreter(
            module,
            fuel=golden.instructions * 50 + 2_000,
            step_hook=HeapFaultInjector(spec, seed=make_rng(seed)),
        ).run("checksum", args)
        _assert_same_execution(fast, ref)


class TestFuelParity:
    def test_fuel_exhaustion_point_matches(self):
        # HANG must trip at exactly the same dynamic instruction.
        module = build_program("collatz")
        args = list(PROGRAMS["collatz"].default_args)
        for fuel in (1, 7, 100, 1265):
            fast = Interpreter(module, fuel=fuel).run("collatz", args)
            ref = ReferenceInterpreter(module, fuel=fuel).run("collatz", args)
            _assert_same_execution(fast, ref)
            assert fast.status.value == "hang"
