"""Sound per-(site, bit) fault-masking analysis.

Classifies every injectable (program point, live register, bit) triple of
a function into one of five :class:`MaskClass` values:

* ``DEAD`` / ``OVERWRITTEN`` — the register is not live-before the point:
  no path reads it again (or its next access is the redefinition of a
  loop-carried phi), so the flipped value is never consumed.  Execution,
  return value, heap traffic and cycle count are bit-identical to the
  fault-free run.
* ``MASKED_BITS`` — the bit lies outside the register's *demanded* mask
  (:func:`repro.analysis.bitclass.demanded_bits`): every downstream
  consumer provably masks it out before it can reach a return, branch,
  memory access, call or trapping operation.  Execution is again
  bit-identical — same path, same value, same cycles.
* ``CHECK_MASKED`` — the flip is caught by the DMR check fabric: either
  the register is *observer-only* (consumed exclusively by compare /
  or-chain / guard-branch logic that can at worst divert into a detect
  trap) or it is a duplicated primary inside a *checked window* (the
  first consumer on every path is a compare-and-trap against its
  replica).  Outcome is provably BENIGN or DETECTED — but which of the
  two depends on the dynamic value, so these trials cannot be pruned.
* ``POSSIBLY_ACE`` — none of the proofs apply; the flip may be an
  Architecturally Correct Execution violation (SDC/crash/hang).

``PROVEN_BENIGN`` (the first four) is the soundness-gate set: exhaustive
re-execution of every such fault must yield BENIGN or DETECTED.
``EXACT_BENIGN`` (the first three) is the *prunable* subset: the trial
outcome is exactly BENIGN with the golden value and golden cycle count,
so :func:`repro.faults.campaign.prune_masked_trials` can reconstruct the
trial record without running it, byte-for-byte.

Bits are indexed exactly as the register injector indexes them
(:func:`repro.ir.types.injectable_width`): integers expose ``bits``
positions, floats and pointers a full 64-bit register.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from repro.analysis.bitclass import demanded_bits, known_bits
from repro.analysis.liveness import liveness
from repro.analysis.reaching import reaching_definitions
from repro.core.dmr.instrument import _DUP_SUFFIX
from repro.ir.cfg import successors
from repro.ir.function import Function
from repro.ir.instructions import (
    COMPARISONS,
    Instruction,
    Opcode,
    Predicate,
)
from repro.ir.module import Module
from repro.ir.types import Type, bit_class, injectable_width
from repro.ir.values import Constant


class MaskClass(enum.Enum):
    """Verdict for one (point, register, bit) fault site."""

    DEAD = "dead"
    OVERWRITTEN = "overwritten"
    MASKED_BITS = "masked-bits"
    CHECK_MASKED = "check-masked"
    POSSIBLY_ACE = "possibly-ace"


#: Classes whose faults provably end BENIGN or DETECTED (soundness gate).
PROVEN_BENIGN = frozenset({
    MaskClass.DEAD, MaskClass.OVERWRITTEN,
    MaskClass.MASKED_BITS, MaskClass.CHECK_MASKED,
})

#: Classes whose faults provably reproduce the golden run bit-for-bit
#: (outcome BENIGN, golden value, golden cycles) — safe to prune.
EXACT_BENIGN = frozenset({
    MaskClass.DEAD, MaskClass.OVERWRITTEN, MaskClass.MASKED_BITS,
})


#: Opcodes through which a corrupted *observer* value may flow without
#: any possibility of trapping or reaching memory/calls/returns.  Float
#: arithmetic is excluded (division and magnitude extraction can raise),
#: as is everything that touches the heap or another frame.
_OBSERVER_SAFE_OPS = frozenset({
    Opcode.ICMP, Opcode.FCMP, Opcode.AND, Opcode.OR, Opcode.XOR,
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.SHL, Opcode.LSHR,
    Opcode.ASHR, Opcode.SELECT, Opcode.PHI, Opcode.ZEXT, Opcode.TRUNC,
    Opcode.SIGN,
})


def _detect_block_names(func: Function) -> frozenset[str]:
    return frozenset(
        b.name for b in func.blocks
        if b.is_terminated and b.terminator.opcode is Opcode.TRAP
    )


def _uses(instr: Instruction) -> list[str]:
    return [op.name for op in instr.operands if not isinstance(op, Constant)]


def _replica_isomorphic(primary: Instruction, replica: Instruction) -> bool:
    """Whether ``replica`` recomputes ``primary`` from parallel operands.

    Required before trusting a checked window: the replica must hold the
    golden value of the primary in every run where only the primary's
    register was corrupted, which holds when it applies the same
    operation to operands that are either identical constants, the same
    uncorrupted names, or their replicas — never the primary itself.
    """
    if (replica.opcode is not primary.opcode
            or replica.type != primary.type
            or replica.predicate is not primary.predicate
            or replica.imm != primary.imm
            or replica.callee != primary.callee
            or len(replica.operands) != len(primary.operands)):
        return False
    for p_op, r_op in zip(primary.operands, replica.operands):
        if isinstance(p_op, Constant) or isinstance(r_op, Constant):
            if p_op != r_op:
                return False
            continue
        if r_op.name not in (p_op.name, p_op.name + _DUP_SUFFIX):
            return False
        if r_op.name == primary.name:
            return False
    return True


@dataclass
class _CheckFabric:
    """The DMR check structure of one function, discovered structurally."""

    #: names of trap-only blocks.
    detect: frozenset[str]
    #: id(instr) of every NE compare that, when true, is guaranteed to
    #: divert the terminator of its own block into a detect block.
    guarded_checks: frozenset[int]
    #: primary name -> id(check) set of qualifying checks against its replica.
    checks_for: dict[str, frozenset[int]]
    #: names whose every transitive consumer is check/or/guard logic.
    observers: frozenset[str]


def _guarded_check_ids(func: Function, detect: frozenset[str]) -> frozenset[int]:
    """NE compares whose truth forces the same-block guard into a trap."""
    guarded: set[int] = set()
    for block in func.blocks:
        if not block.is_terminated:
            continue
        term = block.terminator
        if term.opcode is not Opcode.BR or not term.block_targets:
            continue
        if term.block_targets[0].name not in detect:
            continue
        # Values that, when true, force the branch condition true: the
        # condition itself and, transitively, operands of same-block ORs.
        forcing: set[int] = set()
        cond = term.operands[0] if term.operands else None
        if isinstance(cond, Instruction):
            stack = [cond]
            while stack:
                value = stack.pop()
                if id(value) in forcing or value.parent is not block:
                    continue
                forcing.add(id(value))
                if value.opcode is Opcode.OR:
                    stack.extend(
                        op for op in value.operands
                        if isinstance(op, Instruction)
                    )
        for instr in block.body:
            if (id(instr) in forcing
                    and instr.opcode in COMPARISONS
                    and instr.predicate is Predicate.NE):
                guarded.add(id(instr))
    return guarded


def _check_fabric(func: Function) -> _CheckFabric:
    detect = _detect_block_names(func)
    guarded = _guarded_check_ids(func, detect)

    by_name = {i.name: i for i in func.instructions() if i.name}
    checks_for: dict[str, set[int]] = {}
    for instr in func.instructions():
        if id(instr) not in guarded:
            continue
        names = {op.name for op in instr.operands if not isinstance(op, Constant)}
        if len(names) != 2:
            continue
        for name in names:
            if name + _DUP_SUFFIX in names:
                primary = by_name.get(name)
                replica = by_name.get(name + _DUP_SUFFIX)
                if (primary is not None and replica is not None
                        and _replica_isomorphic(primary, replica)):
                    checks_for.setdefault(name, set()).add(id(instr))

    # Observer-only values: greatest fixpoint — start from every named
    # value and peel off any whose user is not safe observer logic.
    users: dict[str, list[Instruction]] = {}
    named: set[str] = set(by_name)
    named.update(arg.name for arg in func.args)
    for instr in func.instructions():
        for name in _uses(instr):
            users.setdefault(name, []).append(instr)

    observers = set(named)
    changed = True
    while changed:
        changed = False
        for name in list(observers):
            for user in users.get(name, ()):
                if user.is_terminator:
                    ok = (user.opcode is Opcode.BR
                          and user.block_targets
                          and user.block_targets[0].name in detect)
                elif user.opcode in _OBSERVER_SAFE_OPS:
                    ok = user.defines_value and user.name in observers
                else:
                    ok = False
                if not ok:
                    observers.discard(name)
                    changed = True
                    break
    # Arguments are values the caller observes being consumed normally in
    # the golden run too, but corrupting them is fine if all users are
    # observer logic — keep them; typically primaries use args, which
    # evicts them above.

    return _CheckFabric(
        detect=detect,
        guarded_checks=guarded,
        checks_for={k: frozenset(v) for k, v in checks_for.items()},
        observers=frozenset(observers),
    )


@dataclass
class _Window:
    """Per-block next-consumer summary for one duplicated primary."""

    #: block name -> ordered (body_index, is_qualifying_check) of uses.
    uses: dict[str, list[tuple[int, bool]]]
    #: block name -> True when every path leaving the block meets a
    #: qualifying check before any other consumer (or no consumer at all).
    safe_after: dict[str, bool]

    def safe_at(self, block: str, body_index: int) -> bool:
        for index, is_check in self.uses.get(block, ()):
            if index >= body_index:
                return is_check
        return self.safe_after.get(block, False)


def _build_window(func: Function, name: str, check_ids: frozenset[int]) -> _Window:
    uses: dict[str, list[tuple[int, bool]]] = {}
    for block in func.blocks:
        entries = []
        for index, instr in enumerate(block.body):
            if name in _uses(instr):
                entries.append((index, id(instr) in check_ids))
        if entries:
            uses[block.name] = entries

    # Backward must-fixpoint: optimistic start, peel to stability.
    entry_state: dict[str, bool] = {}
    for block in func.blocks:
        block_uses = uses.get(block.name)
        entry_state[block.name] = block_uses[0][1] if block_uses else True

    safe_after: dict[str, bool] = {b.name: True for b in func.blocks}
    changed = True
    while changed:
        changed = False
        for block in func.blocks:
            safe = True
            for succ in successors(block):
                for phi in succ.phis:
                    for value, pred in phi.phi_incoming():
                        if pred is block and not isinstance(value, Constant) \
                                and value.name == name:
                            safe = False
                if not entry_state[succ.name]:
                    safe = False
            if safe != safe_after[block.name]:
                safe_after[block.name] = safe
                changed = True
            block_uses = uses.get(block.name)
            state = block_uses[0][1] if block_uses else safe
            if state != entry_state[block.name]:
                entry_state[block.name] = state
                changed = True
    return _Window(uses=uses, safe_after=safe_after)


@dataclass
class FunctionMasking:
    """Converged masking facts for one function.

    ``classify`` answers the per-trial question the campaign planner and
    the soundness gate ask: given a fault at the hook *before* body
    instruction ``body_index`` of ``block``, flipping ``bit`` of live
    register ``site`` — what do we know statically?
    """

    func: Function
    types: dict[str, Type]
    live_before: dict[tuple[str, int], frozenset[str]]
    demanded: dict[str, int]
    fabric: _CheckFabric
    windows: dict[str, _Window]
    phi_names: frozenset[str]
    reach_at: dict[tuple[str, int], frozenset[str]]

    @cached_property
    def _census(
        self,
    ) -> tuple[dict[MaskClass, int], dict[str, dict[MaskClass, int]]]:
        """Classify every (point, reaching site, bit) once, on first read.

        The campaign planner asks :meth:`classify` about single trials and
        never reads these totals, so it never pays for the enumeration.
        """
        counts: dict[MaskClass, int] = {cls: 0 for cls in MaskClass}
        class_counts: dict[str, dict[MaskClass, int]] = {}
        for (block, body_index), sites in self.reach_at.items():
            for site in sorted(sites):
                type_ = self.types.get(site)
                if type_ is None:
                    continue
                for bit in range(injectable_width(type_)):
                    verdict = self.classify(block, body_index, site, bit)
                    counts[verdict] += 1
                    key = bit_class(type_, bit)
                    bucket = class_counts.get(key)
                    if bucket is None:
                        bucket = class_counts[key] = {
                            cls: 0 for cls in MaskClass
                        }
                    bucket[verdict] += 1
        return counts, class_counts

    @property
    def counts(self) -> dict[MaskClass, int]:
        """(mask class -> count) over the full static enumeration."""
        return self._census[0]

    @property
    def class_counts(self) -> dict[str, dict[MaskClass, int]]:
        """bit-class string -> (mask class -> count)."""
        return self._census[1]

    @property
    def avf_upper_bound(self) -> float:
        """Fraction of enumerated site-bits not proven benign."""
        total = sum(self.counts.values())
        return self.counts[MaskClass.POSSIBLY_ACE] / total if total else 0.0

    def width_of(self, site: str) -> int:
        return injectable_width(self.types[site])

    def classify(
        self, block: str, body_index: int, site: str, bit: int
    ) -> MaskClass:
        type_ = self.types.get(site)
        if type_ is None:
            return MaskClass.POSSIBLY_ACE
        live = self.live_before.get((block, body_index))
        if live is None:
            return MaskClass.POSSIBLY_ACE
        if site not in live:
            return (MaskClass.OVERWRITTEN if site in self.phi_names
                    else MaskClass.DEAD)
        if type_.is_int:
            demand = self.demanded.get(site)
            if demand is not None and not (demand >> bit) & 1:
                return MaskClass.MASKED_BITS
        if site in self.fabric.observers:
            return MaskClass.CHECK_MASKED
        window = self.windows.get(site)
        if window is not None and window.safe_at(block, body_index):
            # Float sign-bit flips can turn 0.0 into the numerically
            # equal -0.0, slipping past the NE check — not proven.
            if not (type_.is_float and bit == 63):
                return MaskClass.CHECK_MASKED
        return MaskClass.POSSIBLY_ACE

    def proven_benign(
        self, block: str, body_index: int, site: str, bit: int
    ) -> bool:
        return self.classify(block, body_index, site, bit) in PROVEN_BENIGN

    def prunable(
        self, block: str, body_index: int, site: str, bit: int
    ) -> bool:
        return self.classify(block, body_index, site, bit) in EXACT_BENIGN


def _analyze_function(func: Function) -> FunctionMasking:
    types = func.value_types()
    info = liveness(func)
    reach = reaching_definitions(func)

    live_before: dict[tuple[str, int], frozenset[str]] = {}
    reach_at: dict[tuple[str, int], frozenset[str]] = {}
    for block in func.blocks:
        live = set(info.live_out[block.name])
        records: list[frozenset[str]] = []
        for instr in reversed(block.instructions):
            if instr.defines_value:
                live.discard(instr.name)
            if not instr.is_phi:
                live.update(_uses(instr))
            records.append(frozenset(live))
        records.reverse()
        phi_count = len(block.phis)
        available = set(reach.reach_in[block.name])
        available.update(phi.name for phi in block.phis)
        for body_index, instr in enumerate(block.body):
            key = (block.name, body_index)
            live_before[key] = records[phi_count + body_index]
            reach_at[key] = frozenset(available)
            if instr.defines_value:
                available.add(instr.name)

    known = known_bits(func)
    demanded = demanded_bits(func, known)
    fabric = _check_fabric(func)
    windows = {
        name: _build_window(func, name, check_ids)
        for name, check_ids in fabric.checks_for.items()
    }
    phi_names = frozenset(
        phi.name for block in func.blocks for phi in block.phis
    )

    return FunctionMasking(
        func=func,
        types=types,
        live_before=live_before,
        demanded=demanded,
        fabric=fabric,
        windows=windows,
        phi_names=phi_names,
        reach_at=reach_at,
    )


@dataclass
class MaskingReport:
    """Module-level masking analysis: one :class:`FunctionMasking` each."""

    module: Module
    functions: dict[str, FunctionMasking]

    def for_function(self, name: str) -> FunctionMasking | None:
        return self.functions.get(name)

    def as_dict(self) -> dict:
        out: dict = {"module": self.module.name, "functions": {}}
        for name, fm in self.functions.items():
            out["functions"][name] = {
                "avf_upper_bound": fm.avf_upper_bound,
                "counts": {cls.value: n for cls, n in fm.counts.items()},
                "bit_classes": {
                    bc: {cls.value: n for cls, n in bucket.items()}
                    for bc, bucket in sorted(fm.class_counts.items())
                },
            }
        return out

    def render(self) -> str:
        lines = [f"masking report for {self.module.name}"]
        for name, fm in self.functions.items():
            total = sum(fm.counts.values())
            proven = sum(
                n for cls, n in fm.counts.items() if cls in PROVEN_BENIGN
            )
            lines.append(
                f"  @{name}: {total} site-bits, "
                f"{proven} proven benign "
                f"({proven / total:.1%})" if total else
                f"  @{name}: no injectable sites"
            )
            lines.append(
                f"    AVF upper bound {fm.avf_upper_bound:.3f}; " + ", ".join(
                    f"{cls.value}={fm.counts[cls]}" for cls in MaskClass
                )
            )
        return "\n".join(lines)


def analyze_masking(module: Module) -> MaskingReport:
    """Run the masking analysis over every function of ``module``."""
    return MaskingReport(
        module=module,
        functions={
            func.name: _analyze_function(func) for func in module
        },
    )
