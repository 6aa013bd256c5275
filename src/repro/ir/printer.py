"""Textual IR printer.

The format round-trips through :mod:`repro.ir.parser`; see that module for
the grammar.  Example::

    func @abs_diff(%a: i64, %b: i64) -> i64 {
    ^entry:
      %c1 = icmp lt i64 %a, %b
      br %c1, ^lt, ^ge
    ^lt:
      %d1 = sub i64 %b, %a
      ret i64 %d1
    ^ge:
      %d2 = sub i64 %a, %b
      ret i64 %d2
    }
"""

from __future__ import annotations

import hashlib

from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import (
    BINOPS,
    CASTS,
    Instruction,
    Opcode,
)
from repro.ir.module import Module
from repro.ir.values import Constant, Value


def _operand(value: Value) -> str:
    if isinstance(value, Constant):
        return value.ref()
    return value.ref()


def print_instruction(instr: Instruction) -> str:
    """Render one instruction (no indentation, no trailing newline)."""
    op = instr.opcode
    lhs = f"{instr.ref()} = " if instr.defines_value else ""
    ops = instr.operands

    if op in BINOPS:
        return f"{lhs}{op.value} {instr.type} {_operand(ops[0])}, {_operand(ops[1])}"
    if op in (Opcode.ICMP, Opcode.FCMP):
        assert instr.predicate is not None
        return (
            f"{lhs}{op.value} {instr.predicate.value} {ops[0].type} "
            f"{_operand(ops[0])}, {_operand(ops[1])}"
        )
    if op in CASTS:
        return f"{lhs}{op.value} {instr.type} {_operand(ops[0])}"
    if op is Opcode.ALLOC:
        return f"{lhs}alloc {ops[0].type} {_operand(ops[0])}"
    if op is Opcode.LOAD:
        return f"{lhs}load {instr.type} {_operand(ops[0])}"
    if op is Opcode.STORE:
        return f"store {ops[0].type} {_operand(ops[0])}, {_operand(ops[1])}"
    if op is Opcode.GEP:
        return f"{lhs}gep {_operand(ops[0])}, {ops[1].type} {_operand(ops[1])}"
    if op is Opcode.BR:
        then_b, else_b = instr.block_targets
        return f"br {_operand(ops[0])}, {then_b.ref()}, {else_b.ref()}"
    if op is Opcode.JMP:
        return f"jmp {instr.block_targets[0].ref()}"
    if op is Opcode.RET:
        if not ops:
            return "ret"
        return f"ret {ops[0].type} {_operand(ops[0])}"
    if op is Opcode.TRAP:
        return "trap"
    if op is Opcode.MAG:
        return f"{lhs}mag {instr.imm or 0} {_operand(ops[0])}"
    if op is Opcode.SIGN:
        return f"{lhs}sign {_operand(ops[0])}"
    if op is Opcode.PHI:
        pairs = ", ".join(
            f"[{_operand(v)}, {b.ref()}]" for v, b in instr.phi_incoming()
        )
        return f"{lhs}phi {instr.type} {pairs}"
    if op is Opcode.SELECT:
        return (
            f"{lhs}select {instr.type} {_operand(ops[0])}, "
            f"{_operand(ops[1])}, {_operand(ops[2])}"
        )
    if op is Opcode.CALL:
        args = ", ".join(f"{a.type} {_operand(a)}" for a in ops)
        return f"{lhs}call {instr.type} @{instr.callee}({args})"
    raise AssertionError(f"unhandled opcode {op}")  # pragma: no cover


def print_block(block: BasicBlock) -> str:
    lines = [f"{block.ref()}:"]
    lines.extend(f"  {print_instruction(i)}" for i in block.instructions)
    return "\n".join(lines)


def print_function(func: Function) -> str:
    params = ", ".join(f"{a.ref()}: {a.type}" for a in func.args)
    header = f"func @{func.name}({params}) -> {func.return_type} {{"
    parts = [header]
    parts.extend(print_block(b) for b in func.blocks)
    parts.append("}")
    return "\n".join(parts)


def print_module(module: Module) -> str:
    return "\n\n".join(print_function(f) for f in module) + "\n"


def module_fingerprint(module: Module) -> str:
    """Content hash of a module: SHA-256 of its printed IR.

    Two modules with identical printed IR behave identically under the
    interpreter (the printer is the module's canonical serialization), so
    the fingerprint is a sound cache key for execution results.
    """
    return hashlib.sha256(print_module(module).encode("utf-8")).hexdigest()
