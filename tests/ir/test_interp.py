"""Interpreter semantics tests."""

import gc
import math
import weakref

from hypothesis import given, strategies as st

from repro.ir.builder import IRBuilder
from repro.ir.function import Function
from repro.ir.instructions import Opcode
from repro.ir.interp import (
    ExecutionStatus, Interpreter, MAG_INF, MAG_NAN, MAG_ZERO, magnitude,
)
from repro.ir.module import Module
from repro.ir.types import F64, INT64


def _eval_binop(opcode_name: str, a, b, type_=INT64):
    """Build and run a one-instruction function computing a <op> b."""
    module = Module("m")
    func = Function("f", [("a", type_), ("b", type_)], type_)
    module.add_function(func)
    builder = IRBuilder(func)
    builder.set_block(func.add_block("entry"))
    method = getattr(builder, opcode_name)
    builder.ret(method(func.args[0], func.args[1]))
    return Interpreter(module).run("f", [a, b])


class TestIntegerSemantics:
    def test_wrapping_add(self):
        r = _eval_binop("add", 2**63 - 1, 1)
        assert r.value == -(2**63)

    def test_division_truncates_toward_zero(self):
        assert _eval_binop("sdiv", -7, 2).value == -3
        assert _eval_binop("sdiv", 7, -2).value == -3

    def test_remainder_sign_follows_dividend(self):
        assert _eval_binop("srem", -7, 2).value == -1
        assert _eval_binop("srem", 7, -2).value == 1

    def test_division_by_zero_traps(self):
        r = _eval_binop("sdiv", 1, 0)
        assert r.status is ExecutionStatus.TRAP
        assert "zero" in r.trap_reason

    def test_shift_amount_masked(self):
        assert _eval_binop("shl", 1, 64).value == 1  # 64 & 63 == 0

    @given(st.integers(-2**63, 2**63 - 1), st.integers(-2**63, 2**63 - 1))
    def test_add_matches_python_mod_2_64(self, a, b):
        result = _eval_binop("add", a, b).value
        assert (result - (a + b)) % 2**64 == 0


class TestFloatSemantics:
    def test_fdiv_by_zero_gives_inf(self):
        r = _eval_binop("fdiv", 1.0, 0.0, F64)
        assert math.isinf(r.value) and r.value > 0

    def test_fdiv_zero_by_zero_gives_nan(self):
        r = _eval_binop("fdiv", 0.0, 0.0, F64)
        assert math.isnan(r.value)

    def test_signed_inf(self):
        r = _eval_binop("fdiv", -1.0, 0.0, F64)
        assert math.isinf(r.value) and r.value < 0


class TestControlAndState:
    def test_loop_program(self, counted_loop_module):
        interp = Interpreter(counted_loop_module)
        assert interp.run("triangle", [10]).value == 55
        assert interp.run("triangle", [0]).value == 0
        assert interp.run("triangle", [-3]).value == 0

    def test_fuel_exhaustion_reports_hang(self, counted_loop_module):
        interp = Interpreter(counted_loop_module, fuel=10)
        result = interp.run("triangle", [10**9])
        assert result.status is ExecutionStatus.HANG

    def test_block_trace_recorded(self, abs_diff_module):
        interp = Interpreter(abs_diff_module, record_trace=True)
        result = interp.run("abs_diff", [3, 10])
        assert result.value == 7
        assert ("abs_diff", "entry") in result.block_trace
        assert ("abs_diff", "lt") in result.block_trace
        assert ("abs_diff", "ge") not in result.block_trace

    def test_cycles_accounted(self, abs_diff_module):
        result = Interpreter(abs_diff_module).run("abs_diff", [3, 10])
        assert result.cycles > 0
        assert result.instructions == 4  # icmp, br, sub, ret

    def test_step_hook_sees_every_body_instruction(self, abs_diff_module):
        seen = []

        def hook(interp, frame, instr, index):
            seen.append(instr.opcode)

        interp = Interpreter(abs_diff_module, step_hook=hook)
        interp.run("abs_diff", [5, 2])
        assert Opcode.ICMP in seen and Opcode.RET in seen

    def test_trap_opcode_reports_detected(self):
        module = Module("m")
        func = Function("f", [], INT64)
        module.add_function(func)
        b = IRBuilder(func)
        b.set_block(func.add_block("entry"))
        b.trap()
        result = Interpreter(module).run("f", [])
        assert result.status is ExecutionStatus.DETECTED

    def test_trap_in_a_batched_block_leaves_no_cycle(self):
        # The trap's traceback runs through the interpreter's frames:
        # kept past the trap, it would hold the interpreter in a cycle
        # that only the cyclic GC frees.
        module = Module("m")
        func = Function("f", [("a", INT64)], INT64)
        module.add_function(func)
        b = IRBuilder(func)
        b.set_block(func.add_block("entry"))
        b.ret(b.sdiv(b.add(func.args[0], b.i64(1)), func.args[0]))
        interp = Interpreter(module)
        gc.disable()
        try:
            result = interp.run("f", [0])
            alive = weakref.ref(interp)
            del interp
            assert result.status is ExecutionStatus.TRAP
            assert alive() is None
        finally:
            gc.enable()

    def test_call_between_functions(self, counted_loop_module):
        module = counted_loop_module
        wrapper = Function("wrapper", [("n", INT64)], INT64)
        module.add_function(wrapper)
        b = IRBuilder(wrapper)
        b.set_block(wrapper.add_block("entry"))
        inner = b.call("triangle", [wrapper.args[0]], INT64)
        b.ret(b.add(inner, b.i64(100)))
        assert Interpreter(module).run("wrapper", [4]).value == 110


class TestMagnitude:
    def test_powers_of_two(self):
        assert magnitude(1.0) == 0
        assert magnitude(2.0) == 1
        assert magnitude(0.5) == -1
        assert magnitude(1024.0) == 10

    def test_sentinels(self):
        assert magnitude(0.0) == MAG_ZERO
        assert magnitude(float("inf")) == MAG_INF
        assert magnitude(float("nan")) == MAG_NAN

    def test_scaled(self):
        assert magnitude(2.0, k=3) == 8
        assert magnitude(3.0, k=4) == math.floor(math.log2(3.0) * 16)

    @given(st.floats(min_value=1e-300, max_value=1e300),
           st.integers(0, 12))
    def test_magnitude_brackets_log2(self, x, k):
        m = magnitude(x, k)
        scaled = math.log2(x) * (1 << k)
        assert m <= scaled < m + 1

    @given(st.floats(min_value=1e-150, max_value=1e150),
           st.floats(min_value=1e-150, max_value=1e150))
    def test_product_magnitude_additive_within_slack(self, a, b):
        total = magnitude(a) + magnitude(b)
        observed = magnitude(a * b)
        assert total - 1 <= observed <= total + 2
