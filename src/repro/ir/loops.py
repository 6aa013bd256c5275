"""Counted loops whose hang has a closed form.

A faulted run that hangs spins, almost always, in a counted loop whose
bound or induction variable an SEU flipped: ``for (i = 0; i < n; i++)``
with a high bit of ``n`` set asks for ~2**62 passes, and stepping through
them up to the instruction budget is most of a campaign's time.  This
module finds the loops whose continuation can be *proven* from the live
environment, so the interpreter can charge the exact HANG record instead
of simulating it (see :class:`repro.ir.interp.Interpreter`).

A loop qualifies when:

* it is a natural loop with a single latch whose blocks form one cycle
  (no block but the header has a phi, and each has one in-loop
  successor), so every pass runs the same block path;
* no block of the loop has a load, store, alloc, call, fptosi, sdiv,
  srem or trap — nothing on the path can trap or touch the heap;
* every branch on the path tests an icmp (or a loop invariant) over
  *affine* values: basic induction variables — a header phi ``p`` whose
  latch value ``p + inv``, ``inv + p`` or ``p - inv`` is computed on the
  path — loop invariants, and their sums, differences and products with
  a constant.  The DMR twin check ``icmp ne %c, %c.dup`` compares two
  such icmps.

Over passes ``t = 0 .. k`` every value of that slice is ``a + b*t``.
:meth:`CountedLoop.spins` proves the loop keeps to its path for all of
them: no value of the slice leaves its type's range at either end of the
horizon (affine, so nothing wraps in between), every icmp keeps one
truth value across it, and every branch's truth value points along the
path.
"""

from __future__ import annotations

import operator
from itertools import accumulate
from typing import Any, Callable

from repro.ir.block import BasicBlock
from repro.ir.cfg import back_edges, successors
from repro.ir.function import Function
from repro.ir.instructions import Instruction, Opcode, Predicate
from repro.ir.values import Constant, Value

#: Opcodes that can trap or touch the heap; a loop holding one of them
#: is never proven to spin.
_UNSAFE = frozenset({
    Opcode.LOAD, Opcode.STORE, Opcode.ALLOC, Opcode.CALL, Opcode.FPTOSI,
    Opcode.SDIV, Opcode.SREM, Opcode.TRAP,
})
_ORDERED = {
    Predicate.LT: operator.lt,
    Predicate.LE: operator.le,
    Predicate.GT: operator.gt,
    Predicate.GE: operator.ge,
}


class CountedLoop:
    """One qualifying loop, its pass accounting and its compiled slice.

    Attributes:
        latch: the block whose back edge re-enters the header.
        weight: dynamic instructions of one pass (header phis plus every
            path block's body, terminators included).
        cycles: cycles of one pass.
        prefix: ``prefix[j]`` — cycles of the first ``j`` instructions of
            a pass, in execution order.

    The slice lives in slots holding ``(a, b)`` forms: constants are
    pre-filled, loop invariants are read from the environment, each
    induction variable starts at its latch value and advances by its
    step, and the ops combine slots in path order.
    """

    __slots__ = (
        "latch", "weight", "cycles", "prefix",
        "_slots", "_loads", "_ivs", "_ops", "_branches",
    )

    def __init__(
        self,
        latch: BasicBlock,
        costs: list[int],
        slots: list[tuple[int, int] | None],
        loads: tuple[tuple[int, str], ...],
        ivs: tuple[tuple[int, str, int, int], ...],
        ops: tuple[tuple[Opcode, int, int, int, Any], ...],
        branches: tuple[tuple[int, bool], ...],
    ) -> None:
        self.latch = latch
        self.weight = len(costs)
        self.prefix = tuple(accumulate(costs, initial=0))
        self.cycles = self.prefix[-1]
        self._slots = slots
        self._loads = loads
        self._ivs = ivs
        self._ops = ops
        self._branches = branches

    def spins(self, env: dict[str, int | float], k: int) -> bool:
        """Whether passes ``0 .. k`` all keep to the loop's path.

        Pass 0 is the one about to start: the header was just reached
        over the back edge and its phis are not yet applied, so each
        induction variable's first value is its latch value in ``env``.
        """
        forms = list(self._slots)
        for slot, name in self._loads:
            forms[slot] = (int(env[name]), 0)
        for slot, update, step, sign in self._ivs:
            # The update op's own range check bounds every value the
            # variable takes, so the phi needs none.
            forms[slot] = (int(env[update]), sign * forms[step][0])
        for opcode, dest, x, y, arg in self._ops:
            ax, bx = forms[x]
            ay, by = forms[y]
            if opcode is Opcode.ICMP:
                a, b = ax - ay, bx - by
                cmp = _ORDERED.get(arg)
                if cmp is not None:
                    truth = cmp(a, 0)
                    if cmp(a + b * k, 0) is not truth:
                        return False
                else:
                    # EQ/NE: ``a + b*t`` must not hit zero inside the
                    # horizon unless it is zero throughout.
                    if b and not a % b and 0 <= -a // b <= k:
                        return False
                    zero = a == 0 and not b
                    truth = zero if arg is Predicate.EQ else not zero
                forms[dest] = (int(truth), 0)
                continue
            if opcode is Opcode.ADD:
                a, b = ax + ay, bx + by
            elif opcode is Opcode.SUB:
                a, b = ax - ay, bx - by
            else:  # MUL by a constant: one side has b == 0
                a, b = ax * ay, ax * by + bx * ay
            lo, hi = arg
            if not (lo <= a <= hi and lo <= a + b * k <= hi):
                return False
            forms[dest] = (a, b)
        for slot, stay in self._branches:
            if bool(forms[slot][0]) is not stay:
                return False
        return True


def counted_loops(
    func: Function, cost: Callable[[Instruction], int]
) -> dict[BasicBlock, CountedLoop]:
    """The qualifying loops of ``func``, by header block."""
    if not all(block.is_terminated for block in func.blocks):
        return {}  # malformed: the interpreter raises when one runs
    latches: dict[BasicBlock, set[BasicBlock]] = {}
    for latch, header in back_edges(func):
        latches.setdefault(header, set()).add(latch)
    preds: dict[BasicBlock, set[BasicBlock]] = {}
    for block in func.blocks:
        for succ in successors(block):
            preds.setdefault(succ, set()).add(block)
    loops = {}
    for header, tails in latches.items():
        if len(tails) != 1:
            continue
        path = _cycle(header, next(iter(tails)), preds)
        loop = path and _compile(path, cost)
        if loop:
            loops[header] = loop
    return loops


def _cycle(
    header: BasicBlock,
    latch: BasicBlock,
    preds: dict[BasicBlock, set[BasicBlock]],
) -> list[BasicBlock] | None:
    """The loop's block path from ``header`` to ``latch``, if it is one cycle.

    Walks back from the latch: a natural loop is a single cycle exactly
    when every block but the header has one predecessor.
    """
    path = [latch]
    while path[-1] is not header:
        sources = preds.get(path[-1], ())
        if len(sources) != 1:
            return None
        (pred,) = sources
        if pred in path:
            return None
        path.append(pred)
    return path[::-1]


def _compile(
    path: list[BasicBlock], cost: Callable[[Instruction], int]
) -> CountedLoop | None:
    """Compile the proof slice of the cycle ``path``, or None if it fails
    the eligibility rules."""
    header, latch = path[0], path[-1]
    order: list[Instruction] = []
    for block in path:
        if block is not header and block.phis:
            return None
        order.extend(block.instructions)
    if any(instr.opcode in _UNSAFE for instr in order):
        return None
    position = {instr.name: i for i, instr in enumerate(order)}

    def on_path(value: Value) -> bool:
        return isinstance(value, Instruction) and value.name in position

    def steps(update: Instruction, phi: Instruction) -> bool:
        """Whether ``update`` is ``phi + inv``, ``inv + phi`` or
        ``phi - inv`` for a loop invariant ``inv``."""
        if update.opcode not in (Opcode.ADD, Opcode.SUB):
            return False
        a, b = update.operands
        if a is phi and not on_path(b):
            return True
        return update.opcode is Opcode.ADD and b is phi and not on_path(a)

    updates: dict[str, Value] = {}
    for phi in header.phis:
        incoming = [v for v, b in zip(phi.operands, phi.block_targets)
                    if b is latch]
        if not incoming:
            return None
        # First entry wins, as in the interpreter's phi lookup.
        updates[phi.name] = incoming[0]

    branches: list[tuple[Value, bool]] = []
    for block, after in zip(path, path[1:] + path[:1]):
        term = block.terminator
        if term.opcode is Opcode.BR and term.block_targets[0] is not \
                term.block_targets[1]:
            branches.append((term.operands[0], term.block_targets[0] is after))

    # The slice: every path value a branch depends on, in path order.
    needed: set[str] = set()
    work = [value for value, _stay in branches if on_path(value)]
    while work:
        instr = work.pop()
        if instr.name in needed:
            continue
        needed.add(instr.name)
        if not instr.type.is_int:
            return None
        if instr.is_phi:
            update = updates[instr.name]
            if not (on_path(update) and steps(update, instr)):
                return None
            work.append(update)
            continue
        if instr.opcode not in (Opcode.ADD, Opcode.SUB, Opcode.MUL,
                                Opcode.ICMP):
            return None
        if instr.opcode is Opcode.MUL and not any(
            isinstance(op, Constant) for op in instr.operands
        ):
            return None
        for op in instr.operands:
            if on_path(op):
                if position[op.name] >= position[instr.name]:
                    return None
                work.append(op)

    slots: list[tuple[int, int] | None] = []
    slot_of: dict[object, int] = {}
    loads: list[tuple[int, str]] = []

    def slot(value: Value) -> int:
        key = value.name if not isinstance(value, Constant) else value
        if key not in slot_of:
            slot_of[key] = len(slots)
            if isinstance(value, Constant):
                slots.append((int(value.value), 0))
            else:
                slots.append(None)
                if not on_path(value):
                    loads.append((slot_of[key], value.name))
        return slot_of[key]

    ivs = []
    ops = []
    for instr in order:
        if instr.name not in needed:
            continue
        if instr.is_phi:
            update = updates[instr.name]
            invariant = next(op for op in update.operands if op is not instr)
            sign = -1 if update.opcode is Opcode.SUB else 1
            ivs.append((slot(instr), update.name, slot(invariant), sign))
            continue
        x, y = (slot(op) for op in instr.operands)
        arg = instr.predicate if instr.opcode is Opcode.ICMP else (
            instr.type.signed_min, instr.type.signed_max
        )
        ops.append((instr.opcode, slot(instr), x, y, arg))
    # Before ``loads`` is frozen: an invariant condition is loaded too.
    checks = tuple((slot(value), stay) for value, stay in branches)
    return CountedLoop(
        latch, [cost(instr) for instr in order], slots, tuple(loads),
        tuple(ivs), tuple(ops), checks,
    )
