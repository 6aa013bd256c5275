"""Reference IR interpreter: the original per-instruction dispatch loop.

:class:`repro.ir.interp.Interpreter` translates each block into a
compiled Python function.  This module keeps the pre-optimization
dispatch loop — opcode tests, cost-model lookups and operand resolution
done per dynamic instruction — under the same public contract, for two
purposes:

* **differential oracle**: ``tests/ir/test_fastpath.py`` checks that the
  compiled interpreter produces identical values, cycles, instruction
  counts and traces on every workload, with and without fault injection;
* **perf baseline**: ``benchmarks/bench_perf.py`` measures the fast path's
  speedup against this loop and records it in ``BENCH_perf.json``.

Keep semantics in lockstep with :mod:`repro.ir.interp`.  ``magnitude``,
coercion and float arithmetic are imported from there; integer
arithmetic and comparisons are written out here, apart from the code
the fast path generates, so the oracle checks that code against an
independent reading of the semantics.
"""

from __future__ import annotations

from repro.errors import DetectionTrap, FuelExhausted, InterpreterError, TrapError
from repro.ir.costmodel import CORTEX_A53, CostModel
from repro.ir.function import Function
from repro.ir.instructions import (
    FLOAT_BINOPS, INT_BINOPS, Instruction, Opcode, Predicate,
)
from repro.ir.interp import (
    _CONTINUE,
    _coerce,
    _float_arith,
    ExecutionResult,
    ExecutionStatus,
    Frame,
    StepHook,
    magnitude,
)
from repro.ir.module import Module
from repro.ir.types import Type
from repro.ir.values import Argument, Constant, Value

import math


class ReferenceInterpreter:
    """Executes IR modules with per-instruction dispatch (no compilation)."""

    MAX_HEAP_CELLS = 1 << 20

    def __init__(
        self,
        module: Module,
        cost_model: CostModel = CORTEX_A53,
        fuel: int = 5_000_000,
        record_trace: bool = False,
        step_hook: StepHook | None = None,
    ) -> None:
        self.module = module
        self.cost_model = cost_model
        self.fuel = fuel
        self.record_trace = record_trace
        self.step_hook = step_hook
        self.heap: list[int | float] = []
        self.cycles = 0
        self.instructions = 0
        self.block_trace: list[tuple[str, str]] = []
        self.frames: list[Frame] = []

    # -- public API -----------------------------------------------------------

    def run(self, func_name: str, args: list[int | float]) -> ExecutionResult:
        """Execute ``func_name`` with ``args`` and classify the outcome."""
        self.heap = []
        self.cycles = 0
        self.instructions = 0
        self.block_trace = []
        self.frames = []
        func = self.module.function(func_name)
        try:
            value = self._call(func, args)
            status, reason = ExecutionStatus.OK, ""
        except DetectionTrap as exc:
            value, status, reason = None, ExecutionStatus.DETECTED, str(exc)
        except TrapError as exc:
            value, status, reason = None, ExecutionStatus.TRAP, str(exc)
        except FuelExhausted as exc:
            value, status, reason = None, ExecutionStatus.HANG, str(exc)
        return ExecutionResult(
            status=status,
            value=value,
            cycles=self.cycles,
            instructions=self.instructions,
            block_trace=self.block_trace,
            trap_reason=reason,
        )

    @staticmethod
    def value_types(func: Function) -> dict[str, Type]:
        """Declared type of every value of ``func``, found per call."""
        return func.value_types()

    def alloc_cells(self, count: int) -> int:
        """Allocate ``count`` zeroed heap cells; returns base address."""
        if count < 0:
            raise TrapError(f"negative allocation of {count} cells")
        if len(self.heap) + count > self.MAX_HEAP_CELLS:
            raise TrapError(
                f"allocation of {count} cells exceeds the heap limit"
            )
        base = len(self.heap)
        self.heap.extend([0] * count)
        return base

    # -- execution core --------------------------------------------------------

    def _call(self, func: Function, args: list[int | float]) -> int | float | None:
        if len(args) != len(func.args):
            raise InterpreterError(
                f"@{func.name} expects {len(func.args)} args, got {len(args)}"
            )
        env: dict[str, int | float] = {}
        for formal, actual in zip(func.args, args):
            env[formal.name] = _coerce(formal.type, actual)
        frame = Frame(func=func, env=env, block=func.entry)
        self.frames.append(frame)
        try:
            return self._run_frame(frame)
        finally:
            self.frames.pop()

    def _run_frame(self, frame: Frame) -> int | float | None:
        while True:
            if self.record_trace:
                self.block_trace.append((frame.func.name, frame.block.name))
            result = self._run_block(frame)
            if result is not _CONTINUE:
                return result

    def _run_block(self, frame: Frame) -> object:
        # Phi nodes evaluate in parallel against the edge just taken.
        phis = frame.block.phis
        if phis:
            staged: dict[str, int | float] = {}
            for phi in phis:
                staged[phi.name] = self._phi_value(frame, phi)
                self._account(phi)
            frame.env.update(staged)

        for instr in frame.block.body:
            if self.step_hook is not None:
                self.step_hook(self, frame, instr, self.instructions)
            self._account(instr)
            op = instr.opcode
            if op is Opcode.RET:
                if instr.operands:
                    return self._value(frame, instr.operands[0])
                return None
            if op is Opcode.TRAP:
                raise DetectionTrap(
                    f"protection trap in @{frame.func.name}:"
                    f"^{frame.block.name}"
                )
            if op is Opcode.JMP:
                self._jump(frame, instr.block_targets[0])
                return _CONTINUE
            if op is Opcode.BR:
                cond = self._value(frame, instr.operands[0])
                target = instr.block_targets[0 if cond else 1]
                self._jump(frame, target)
                return _CONTINUE
            value = self._evaluate(frame, instr)
            if instr.defines_value:
                frame.env[instr.name] = value
        raise InterpreterError(
            f"@{frame.func.name}:^{frame.block.name} fell off the end"
        )  # pragma: no cover - verifier guarantees terminators

    def _jump(self, frame: Frame, target) -> None:
        frame.prev_block = frame.block
        frame.block = target

    def _account(self, instr: Instruction) -> None:
        self.instructions += 1
        self.cycles += self.cost_model.cost(instr)
        if self.instructions > self.fuel:
            raise FuelExhausted(
                f"instruction budget of {self.fuel} exhausted"
            )

    def _phi_value(self, frame: Frame, phi: Instruction) -> int | float:
        if frame.prev_block is None:
            raise InterpreterError(
                f"phi {phi.ref()} reached without a predecessor edge"
            )
        for value, block in phi.phi_incoming():
            if block is frame.prev_block:
                return self._value(frame, value)
        raise TrapError(
            f"phi {phi.ref()}: no incoming entry for edge from "
            f"^{frame.prev_block.name} (control-flow corruption?)"
        )

    def _value(self, frame: Frame, value: Value) -> int | float:
        if isinstance(value, Constant):
            return value.value
        if isinstance(value, (Argument, Instruction)):
            try:
                return frame.env[value.name]
            except KeyError:
                raise TrapError(
                    f"read of undefined value {value.ref()}"
                ) from None
        raise InterpreterError(f"unknown value kind {value!r}")

    # -- per-opcode evaluation ---------------------------------------------------

    def _evaluate(self, frame: Frame, instr: Instruction) -> int | float:
        op = instr.opcode
        get = lambda i: self._value(frame, instr.operands[i])  # noqa: E731

        if op in INT_BINOPS:
            return _int_arith(op, instr.type, int(get(0)), int(get(1)))
        if op in FLOAT_BINOPS:
            return _float_arith(op, float(get(0)), float(get(1)))
        if op is Opcode.ICMP:
            assert instr.predicate is not None
            return int(_compare(instr.predicate, int(get(0)), int(get(1))))
        if op is Opcode.FCMP:
            assert instr.predicate is not None
            a, b = float(get(0)), float(get(1))
            if math.isnan(a) or math.isnan(b):
                return int(instr.predicate is Predicate.NE)
            return int(_compare(instr.predicate, a, b))
        if op is Opcode.SITOFP:
            return float(int(get(0)))
        if op is Opcode.FPTOSI:
            value = float(get(0))
            if math.isnan(value) or math.isinf(value):
                raise TrapError(f"fptosi of non-finite value {value}")
            return instr.type.wrap(int(value))
        if op is Opcode.ZEXT:
            raw = int(get(0)) & ((1 << instr.operands[0].type.bits) - 1)
            return instr.type.wrap(raw)
        if op is Opcode.TRUNC:
            return instr.type.wrap(int(get(0)))
        if op is Opcode.ALLOC:
            return self.alloc_cells(int(get(0)))
        if op is Opcode.LOAD:
            return self._load(int(get(0)), instr.type)
        if op is Opcode.STORE:
            self._store(int(get(1)), get(0))
            return 0
        if op is Opcode.GEP:
            return int(get(0)) + int(get(1))
        if op is Opcode.SELECT:
            return get(1) if get(0) else get(2)
        if op is Opcode.MAG:
            return magnitude(float(get(0)), instr.imm or 0)
        if op is Opcode.SIGN:
            return int(math.copysign(1.0, float(get(0))) < 0)
        if op is Opcode.CALL:
            assert instr.callee is not None
            callee = self.module.function(instr.callee)
            args = [self._value(frame, a) for a in instr.operands]
            result = self._call(callee, args)
            return 0 if result is None else result
        raise InterpreterError(f"unhandled opcode {op}")  # pragma: no cover

    def _load(self, address: int, type_: Type) -> int | float:
        if not 0 <= address < len(self.heap):
            raise TrapError(f"load from invalid address {address}")
        raw = self.heap[address]
        if type_.is_float:
            return float(raw)
        return type_.wrap(int(raw))

    def _store(self, address: int, value: int | float) -> None:
        if not 0 <= address < len(self.heap):
            raise TrapError(f"store to invalid address {address}")
        self.heap[address] = value


def _int_arith(op: Opcode, type_: Type, a: int, b: int) -> int:
    bits = type_.bits
    if op is Opcode.ADD:
        return type_.wrap(a + b)
    if op is Opcode.SUB:
        return type_.wrap(a - b)
    if op is Opcode.MUL:
        return type_.wrap(a * b)
    if op is Opcode.SDIV:
        if b == 0:
            raise TrapError("integer division by zero")
        return type_.wrap(int(a / b))  # trunc-toward-zero, like hardware
    if op is Opcode.SREM:
        if b == 0:
            raise TrapError("integer remainder by zero")
        return type_.wrap(a - int(a / b) * b)
    if op is Opcode.AND:
        return type_.wrap(a & b)
    if op is Opcode.OR:
        return type_.wrap(a | b)
    if op is Opcode.XOR:
        return type_.wrap(a ^ b)
    shift = b & (bits - 1) if bits > 1 else 0
    unsigned = a & ((1 << bits) - 1)
    if op is Opcode.SHL:
        return type_.wrap(unsigned << shift)
    if op is Opcode.LSHR:
        return type_.wrap(unsigned >> shift)
    if op is Opcode.ASHR:
        return type_.wrap(a >> shift)
    raise AssertionError(op)  # pragma: no cover


def _compare(pred: Predicate, a: int | float, b: int | float) -> bool:
    if pred is Predicate.EQ:
        return a == b
    if pred is Predicate.NE:
        return a != b
    if pred is Predicate.LT:
        return a < b
    if pred is Predicate.LE:
        return a <= b
    if pred is Predicate.GT:
        return a > b
    return a >= b
