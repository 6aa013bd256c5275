"""Quantized data-flow instrumentation pass.

For every floating-point multiply/divide chain feeding a return value, the
pass builds an integer *shadow*: ``mag`` of each chain leaf, combined with
integer add/sub following the chain structure, plus a one-bit sign shadow
combined with xor.  Before the return, the observed magnitude and sign of
the result are compared against the shadow; divergence beyond the floor-
error tolerance traps.

Cost structure (A53 model): ``mag``/``sign`` are 1 cycle, shadow add/sub/xor
are 2-cycle integer ops — versus 7 cycles for each replicated FP operation
under DMR.  This is the paper's "calculating this order of magnitude
approach is faster than DMR" argument made executable.

Known scope limits (inherited from the paper's case study): only multiply /
divide chains are shadowed (addition magnitudes are not predictable under
cancellation), and exact zeros flowing through a protected chain are not
supported (the magnitude of zero is a sentinel).
"""

from __future__ import annotations

from dataclasses import dataclass, field


from repro.core.quantize.magnitude import tolerance_units
from repro.errors import ConfigError
from repro.faults.campaign import Campaign, CampaignResult, run_campaign
from repro.faults.model import FaultTarget
from repro.ir.block import BasicBlock
from repro.ir.clone import clone_module
from repro.ir.costmodel import CORTEX_A53, CostModel
from repro.ir.function import Function
from repro.ir.instructions import Instruction, Opcode, Predicate
from repro.ir.interp import ExecutionResult, Interpreter, magnitude
from repro.ir.module import Module
from repro.ir.transform import get_or_create_trap_block, split_block
from repro.ir.types import INT1, INT64, VOID
from repro.ir.values import Argument, Constant, Value
from repro.ir.verifier import verify_function

_TRAP_BLOCK = "quant.detect"
_CHAIN_OPS = frozenset({Opcode.FMUL, Opcode.FDIV})


@dataclass
class QuantizePlan:
    """What the pass did to one function.

    Attributes:
        k: protected mantissa bits (0 = exponent+sign only).
        protected: names of shadowed fmul/fdiv instructions.
        n_leaves: leaves feeding each protected value.
        n_checks: return-site checks inserted.
    """

    k: int
    protected: list[str] = field(default_factory=list)
    n_leaves: dict[str, int] = field(default_factory=dict)
    n_checks: int = 0


class _ShadowBuilder:
    """Builds magnitude and sign shadows for one function."""

    def __init__(self, func: Function, k: int) -> None:
        self.func = func
        self.k = k
        self.mag_shadow: dict[int, Value] = {}
        self.sign_shadow: dict[int, Value] = {}
        self.leaf_count: dict[int, int] = {}
        self.plan = QuantizePlan(k=k)

    # -- chain discovery ----------------------------------------------------

    def protected_set(self) -> dict[int, Instruction]:
        """fmul/fdiv instructions reachable from return values."""
        roots: list[Value] = []
        for block in self.func.blocks:
            if not block.instructions:
                continue
            term = block.instructions[-1]
            if term.opcode is Opcode.RET and term.operands:
                roots.append(term.operands[0])
        protected: dict[int, Instruction] = {}
        stack = [v for v in roots if self._is_chain_op(v)]
        while stack:
            instr = stack.pop()
            assert isinstance(instr, Instruction)
            if id(instr) in protected:
                continue
            protected[id(instr)] = instr
            for op in instr.operands:
                if self._is_chain_op(op):
                    stack.append(op)
        return protected

    @staticmethod
    def _is_chain_op(value: Value) -> bool:
        return isinstance(value, Instruction) and value.opcode in _CHAIN_OPS

    # -- shadow emission ------------------------------------------------------

    def _leaf_insertion_point(self, leaf: Value) -> tuple[BasicBlock, int]:
        """Block and index at which a leaf's mag/sign must be computed."""
        if isinstance(leaf, Argument):
            entry = self.func.entry
            return entry, len(entry.phis)
        assert isinstance(leaf, Instruction)
        block = leaf.parent
        assert block is not None
        if leaf.is_phi:
            return block, len(block.phis)
        for i, instr in enumerate(block.instructions):
            if instr is leaf:
                return block, i + 1
        raise ConfigError(f"leaf {leaf.ref()} not found in its block")

    def _leaf_shadows(self, leaf: Value) -> tuple[Value, Value, int]:
        """(mag shadow, sign shadow, leaf count=1) for a chain leaf."""
        if isinstance(leaf, Constant):
            mag = Constant(INT64, magnitude(float(leaf.value), self.k))
            import math

            sign = Constant(INT1, int(math.copysign(1.0, float(leaf.value)) < 0))
            return mag, sign, 1
        key = id(leaf)
        if key in self.mag_shadow:
            return self.mag_shadow[key], self.sign_shadow[key], 1
        block, index = self._leaf_insertion_point(leaf)
        mag = Instruction(
            Opcode.MAG, INT64, [leaf],
            name=self.func.fresh_name("q.mag"), imm=self.k,
        )
        sign = Instruction(
            Opcode.SIGN, INT1, [leaf], name=self.func.fresh_name("q.sign")
        )
        block.insert(index, sign)
        block.insert(index, mag)
        self.mag_shadow[key] = mag
        self.sign_shadow[key] = sign
        return mag, sign, 1

    def build(self) -> dict[int, Instruction]:
        """Emit shadows for the whole protected set; returns the set."""
        protected = self.protected_set()
        # Process in block/program order so operand shadows exist first.
        ordered = [
            instr
            for block in self.func.blocks
            for instr in block.instructions
            if id(instr) in protected
        ]
        for instr in ordered:
            shadows = []
            for op in instr.operands:
                if id(op) in self.mag_shadow and self._is_chain_op(op):
                    shadows.append(
                        (
                            self.mag_shadow[id(op)],
                            self.sign_shadow[id(op)],
                            self.leaf_count[id(op)],
                        )
                    )
                else:
                    shadows.append(self._leaf_shadows(op))
            (mag_a, sign_a, n_a), (mag_b, sign_b, n_b) = shadows
            combine = Opcode.ADD if instr.opcode is Opcode.FMUL else Opcode.SUB
            mag = Instruction(
                combine, INT64, [mag_a, mag_b],
                name=self.func.fresh_name("q.m"),
            )
            sign = Instruction(
                Opcode.XOR, INT1, [sign_a, sign_b],
                name=self.func.fresh_name("q.s"),
            )
            block = instr.parent
            assert block is not None
            position = block.instructions.index(instr)
            block.insert(position + 1, sign)
            block.insert(position + 1, mag)
            self.mag_shadow[id(instr)] = mag
            self.sign_shadow[id(instr)] = sign
            self.leaf_count[id(instr)] = n_a + n_b
            self.plan.protected.append(instr.name)
            self.plan.n_leaves[instr.name] = n_a + n_b
        return protected


def _emit_ret_check(
    func: Function,
    block: BasicBlock,
    ret_index: int,
    value: Instruction,
    builder: _ShadowBuilder,
    trap: BasicBlock,
) -> None:
    """Compare observed magnitude/sign of ``value`` against its shadow."""
    cont = split_block(func, block, ret_index)
    k = builder.k
    tol = tolerance_units(builder.leaf_count[id(value)])
    fresh = func.fresh_name

    observed = Instruction(
        Opcode.MAG, INT64, [value], name=fresh("q.obs"), imm=k
    )
    diff = Instruction(
        Opcode.SUB, INT64, [observed, builder.mag_shadow[id(value)]],
        name=fresh("q.diff"),
    )
    neg = Instruction(
        Opcode.SUB, INT64, [Constant(INT64, 0), diff], name=fresh("q.neg")
    )
    is_neg = Instruction(
        Opcode.ICMP, INT1, [diff, Constant(INT64, 0)],
        name=fresh("q.isneg"), predicate=Predicate.LT,
    )
    absolute = Instruction(
        Opcode.SELECT, INT64, [is_neg, neg, diff], name=fresh("q.abs")
    )
    too_big = Instruction(
        Opcode.ICMP, INT1, [absolute, Constant(INT64, tol)],
        name=fresh("q.big"), predicate=Predicate.GT,
    )
    observed_sign = Instruction(
        Opcode.SIGN, INT1, [value], name=fresh("q.osign")
    )
    sign_bad = Instruction(
        Opcode.XOR, INT1, [observed_sign, builder.sign_shadow[id(value)]],
        name=fresh("q.sbad"),
    )
    bad = Instruction(
        Opcode.OR, INT1, [too_big, sign_bad], name=fresh("q.bad")
    )
    for instr in (observed, diff, neg, is_neg, absolute, too_big,
                  observed_sign, sign_bad, bad):
        block.append(instr)
    block.append(
        Instruction(Opcode.BR, VOID, [bad], block_targets=[trap, cont])
    )


def instrument_quantized(
    module: Module,
    func_name: str,
    k: int = 0,
) -> tuple[Module, QuantizePlan]:
    """Clone ``module`` and add quantized checking to ``func_name``."""
    if not 0 <= k <= 52:
        raise ConfigError(f"protected mantissa bits k={k} outside [0, 52]")
    instrumented = clone_module(module, f"{module.name}+quant{k}")
    func = instrumented.function(func_name)
    builder = _ShadowBuilder(func, k)
    protected = builder.build()
    if protected:
        trap = get_or_create_trap_block(func, _TRAP_BLOCK)
        # Insert checks at returns whose value is protected.  Restart the
        # scan after each split (indices shift).
        done: set[int] = set()
        changed = True
        while changed:
            changed = False
            for block in func.blocks:
                for index, instr in enumerate(block.instructions):
                    if instr.opcode is not Opcode.RET or not instr.operands:
                        continue
                    if id(instr) in done:
                        continue
                    done.add(id(instr))
                    value = instr.operands[0]
                    if isinstance(value, Instruction) and id(value) in protected:
                        _emit_ret_check(
                            func, block, index, value, builder, trap
                        )
                        builder.plan.n_checks += 1
                        changed = True
                        break
                if changed:
                    break
    verify_function(func)
    return instrumented, builder.plan


class QuantizedProgram:
    """A program protected by quantized data-flow checking.

    API mirrors :class:`repro.core.dmr.runtime.ProtectedProgram` so the two
    schemes are directly comparable in benchmarks.
    """

    def __init__(
        self,
        baseline: Module,
        func_name: str,
        k: int = 0,
        cost_model: CostModel = CORTEX_A53,
        fuel: int = 5_000_000,
    ) -> None:
        self.baseline = baseline
        self.func_name = func_name
        self.k = k
        self.cost_model = cost_model
        self.fuel = fuel
        self.module, self.plan = instrument_quantized(baseline, func_name, k)

    def run(self, args: tuple[int | float, ...]) -> ExecutionResult:
        interp = Interpreter(
            self.module, cost_model=self.cost_model, fuel=self.fuel
        )
        return interp.run(self.func_name, list(args))

    def run_baseline(self, args: tuple[int | float, ...]) -> ExecutionResult:
        interp = Interpreter(
            self.baseline, cost_model=self.cost_model, fuel=self.fuel
        )
        return interp.run(self.func_name, list(args))

    def overhead(self, args: tuple[int | float, ...]) -> float:
        """Cycle overhead factor vs the unprotected baseline."""
        base = self.run_baseline(args)
        prot = self.run(args)
        if not (base.ok and prot.ok):
            raise ConfigError(
                f"overhead runs failed: baseline={base.status.value}, "
                f"protected={prot.status.value} ({prot.trap_reason})"
            )
        if base.value != prot.value:
            raise ConfigError(
                f"quantized instrumentation changed the output: "
                f"{base.value} -> {prot.value}"
            )
        if base.cycles == 0:
            return 1.0
        return prot.cycles / base.cycles

    def campaign(
        self,
        args: tuple[int | float, ...],
        n_trials: int = 200,
        target: FaultTarget = FaultTarget.REGISTER,
        sdc_tolerance: float = 0.0,
        seed: int | None = None,
    ) -> CampaignResult:
        return run_campaign(
            Campaign(
                module=self.module,
                func_name=self.func_name,
                args=args,
                n_trials=n_trials,
                target=target,
                sdc_tolerance=sdc_tolerance,
                fuel=self.fuel,
                cost_model=self.cost_model,
            ),
            seed=seed,
        )
