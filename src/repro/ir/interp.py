"""IR interpreter with cycle accounting, tracing and fault hooks.

This is the execution substrate for the SEU experiments: programs run under
an instruction budget (hang detection), every dynamic instruction is charged
cycles from a :class:`~repro.ir.costmodel.CostModel`, the executed-block
trace can be recorded (consumed by the DMR control-flow monitor), and a
``step_hook`` fires between instructions so fault injectors can corrupt live
register state at a precise dynamic instruction index — the same granularity
the paper's QEMU framework provides (sect. 4.2).

Execution uses a compiled fast path: the first time a basic block runs, its
instructions are lowered to per-instruction step closures with operand
accessors, cycle costs, and branch targets resolved once, so the per-step
loop does no opcode dispatch, no cost-model lookups, and no isinstance
chains.  Compiled blocks can be shared across interpreter instances via the
``code_cache`` argument (one cache per module + cost model), which is how
fault-injection campaigns amortize compilation across hundreds of trials.

On top of per-block compilation sit two further tiers:

* **batched block execution** — when no step hook, trace hook or trace
  recording is active for a block, its steps run in a bare loop with the
  instruction/cycle counters and the fuel check hoisted out (one fuel
  precheck per block, counters added in bulk).  Exactness is preserved:
  a mid-block trap re-charges exactly the instructions executed up to and
  including the trapping one (prefix-summed cycle tables), and a block
  that could cross the fuel ceiling falls back to the per-step loop so
  HANG trips at the identical dynamic instruction.
* **superblock compilation** — chains of blocks linked by unconditional
  jumps into single-predecessor, phi-free successors are fused into one
  flat step sequence, so straight-line regions spanning several blocks
  pay one dispatch, one fuel precheck and one counter update.  Formation
  rules: the chain extends from a head block across ``jmp`` terminators
  only, each appended block must have exactly one predecessor, no phis,
  not be the function entry, not already be in the chain, and contain no
  calls (calls re-enter the interpreter and must see exact counters).

Fault-injection trials keep the batched tiers almost everywhere via the
``hook_index`` contract: a ``step_hook`` whose observable effects are
confined to dynamic indices ``>= hook_index`` until its ``fired`` property
turns True (both SEU injectors satisfy this) lets the interpreter skip
hook dispatch for every (super)block that ends before the window opens
and for everything after the hook has fired — the hook is called for
every instruction inside the live window, exactly like the reference
semantics.  :class:`repro.ir.refinterp.ReferenceInterpreter` keeps the
original dispatch loop as a differential oracle and perf baseline.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import DetectionTrap, FuelExhausted, InterpreterError, TrapError
from repro.ir.block import BasicBlock
from repro.ir.costmodel import CORTEX_A53, CostModel
from repro.ir.function import Function
from repro.ir.instructions import Instruction, Opcode, Predicate
from repro.ir.module import Module
from repro.ir.types import Type
from repro.ir.values import Argument, Constant, Value


class ExecutionStatus(enum.Enum):
    """How a program run ended."""

    OK = "ok"
    TRAP = "trap"          # division by zero, bad memory access, ...
    HANG = "hang"          # instruction budget exhausted
    DETECTED = "detected"  # a protection pass's trap fired


@dataclass
class ExecutionResult:
    """Outcome of one program execution.

    Attributes:
        status: how the run ended.
        value: return value of the entry function (None on trap/hang).
        cycles: total cycles charged by the cost model.
        instructions: dynamic instruction count.
        block_trace: (function, block) names in execution order, when
            tracing was enabled.
        trap_reason: human-readable trap description.
    """

    status: ExecutionStatus
    value: int | float | None
    cycles: int
    instructions: int
    block_trace: list[tuple[str, str]] = field(default_factory=list)
    trap_reason: str = ""

    @property
    def ok(self) -> bool:
        return self.status is ExecutionStatus.OK


@dataclass
class Frame:
    """One activation record: SSA environment of a function invocation."""

    func: Function
    env: dict[str, int | float]
    block: BasicBlock
    prev_block: BasicBlock | None = None


#: Called before each instruction: (interpreter, frame, instruction, dynamic
#: index).  May mutate frame.env / interpreter.heap to model an SEU.
StepHook = Callable[["Interpreter", Frame, Instruction, int], None]


class _Return:
    """Control-flow marker: the frame returned ``value``."""

    __slots__ = ("value",)

    def __init__(self, value: int | float | None) -> None:
        self.value = value


#: A compiled step: ``(interp, frame) -> None | _CONTINUE | _Return``.
#: ``None`` falls through to the next step; ``_CONTINUE`` means a branch was
#: taken (re-enter the block loop); ``_Return`` carries the frame's result.
_Step = Callable[["Interpreter", Frame], object]


class _BlockCode:
    """Compiled form of one basic block.

    Attributes:
        phis: ``(phi, cost, incoming)`` per leading phi, where ``incoming``
            maps predecessor block (by identity) to an operand accessor.
        steps: ``(instr, cost, step)`` per body instruction.  The original
            :class:`Instruction` rides along for step hooks.
        has_call: whether any body instruction is a call.  Calls re-enter
            the interpreter, which must observe exact counters, so blocks
            with calls never run in batched mode.
    """

    __slots__ = ("phis", "steps", "has_call")

    def __init__(
        self,
        phis: list[tuple[Instruction, int, dict[BasicBlock, Callable]]],
        steps: tuple[tuple[Instruction, int, _Step], ...],
        has_call: bool,
    ) -> None:
        self.phis = phis
        self.steps = steps
        self.has_call = has_call


class _SuperCode:
    """Compiled form of one superblock: a fused chain of basic blocks.

    The chain starts at ``head`` and extends across unconditional jumps
    into phi-free single-predecessor successors.  ``body`` is the flat
    bare-step sequence of every chain member (intermediate ``jmp``
    terminators included — they keep ``frame.block``/``prev_block``
    honest and cost cycles like any instruction); ``term`` is the final
    block's terminator step.

    Exact accounting data for batched execution:

    * ``phi_prefix[j]`` — cycles of the head's first ``j`` phis;
    * ``body_prefix[k]`` — cycles of the first ``k`` body steps;
    * ``weight`` — total dynamic instructions (phis + body + terminator);
    * ``total_cycles`` — total cycles of a full pass through the chain;
    * ``fast_ok`` — False when the head block contains a call (the chain
      never *extends* into call blocks, but a call in the head itself
      means this superblock must always run on the per-step path).
    """

    __slots__ = (
        "head", "blocks", "phis", "n_phis", "phi_prefix", "body",
        "body_prefix", "term", "weight", "total_cycles", "fast_ok",
    )

    def __init__(
        self,
        head: BasicBlock,
        blocks: tuple[BasicBlock, ...],
        phis: list[tuple[Instruction, int, dict[BasicBlock, Callable]]],
        body: tuple[_Step, ...],
        body_prefix: tuple[int, ...],
        term: _Step,
        term_cost: int,
        fast_ok: bool,
    ) -> None:
        self.head = head
        self.blocks = blocks
        self.phis = phis
        self.n_phis = len(phis)
        prefix = [0]
        for _phi, cost, _incoming in phis:
            prefix.append(prefix[-1] + cost)
        self.phi_prefix = tuple(prefix)
        self.body = body
        self.body_prefix = body_prefix
        self.term = term
        self.weight = self.n_phis + len(body) + 1
        self.total_cycles = (
            self.phi_prefix[-1] + body_prefix[-1] + term_cost
        )
        self.fast_ok = fast_ok


class Interpreter:
    """Executes IR modules.

    Attributes:
        module: the module under execution.
        cost_model: per-instruction cycle charges.
        heap: flat list of 8-byte cells shared by all frames.
        fuel: maximum dynamic instructions before declaring a hang.

    Args:
        code_cache: optional dict reused across interpreter instances to
            share compiled blocks.  Callers must only share a cache between
            interpreters with the same module (not mutated in between) and
            the same cost model — fault-injection campaigns satisfy both.
        trace_hook: optional ``(func_name, block_name)`` callback fired on
            every block entry (the observability layer's block-transition
            tracing).  Costs one attribute read per block when None, so
            the compiled fast path is preserved in disabled mode.
        hook_index: quiescence contract for ``step_hook``: the hook is a
            pure no-op for every dynamic instruction index below
            ``hook_index`` and, once its ``fired`` property is True, for
            every index after.  With this promise the interpreter skips
            hook dispatch outside the live window and runs batched
            (super)blocks there; inside the window the hook is called for
            every instruction, exactly like the reference loop.  Leave
            None for hooks without the contract (checkpoints, watchdogs)
            — they are then called on every instruction.
    """

    def __init__(
        self,
        module: Module,
        cost_model: CostModel = CORTEX_A53,
        fuel: int = 5_000_000,
        record_trace: bool = False,
        step_hook: StepHook | None = None,
        code_cache: dict[BasicBlock, _BlockCode] | None = None,
        trace_hook: Callable[[str, str], None] | None = None,
        hook_index: int | None = None,
    ) -> None:
        self.module = module
        self.cost_model = cost_model
        self.fuel = fuel
        self.record_trace = record_trace
        self.step_hook = step_hook
        self.trace_hook = trace_hook
        self.hook_index = hook_index
        self.heap: list[int | float] = []
        self.cycles = 0
        self.instructions = 0
        self.block_trace: list[tuple[str, str]] = []
        self.frames: list[Frame] = []
        self._code: dict = (
            code_cache if code_cache is not None else {}
        )
        # Superblocks and predecessor counts live in nested maps under
        # reserved string keys so a shared ``code_cache`` carries all
        # three compilation tiers (block lookups stay keyed by the
        # BasicBlock itself, with no per-dispatch tuple allocation).
        supers = self._code.get("__supers__")
        if supers is None:
            supers = self._code["__supers__"] = {}
        self._supers: dict[BasicBlock, _SuperCode] = supers
        preds = self._code.get("__preds__")
        if preds is None:
            preds = self._code["__preds__"] = {}
        self._preds: dict[Function, dict[BasicBlock, int]] = preds

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

    def resume(
        self,
        func_name: str,
        block_name: str,
        env: dict[str, int | float],
        heap: list[int | float],
        cycles: int = 0,
        instructions: int = 0,
    ) -> ExecutionResult:
        """Resume execution from a single-frame checkpoint.

        The checkpoint must have been taken at a *safe point*: the start
        of a block's body, after the block's phis were applied to ``env``
        (this is where :class:`repro.recover.checkpoint.CheckpointHook`
        fires).  Phi evaluation of the resumed block is therefore skipped —
        re-running phis against a post-phi environment is not idempotent
        (e.g. a loop-carried swap).  Cycle and instruction counters pick up
        from the checkpointed values so overhead accounting stays honest.
        """
        self.heap = list(heap)
        self.cycles = cycles
        self.instructions = instructions
        self.block_trace = []
        self.frames = []
        func = self.module.function(func_name)
        frame = Frame(func=func, env=dict(env), block=func.block(block_name))
        self.frames.append(frame)
        try:
            try:
                value = self._run_frame(frame, skip_phis_once=True)
            finally:
                self.frames.pop()
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

    #: Heap ceiling in cells (8 MiB-equivalent).  A corrupted allocation
    #: size (e.g. a flipped high bit of an alloc count) must trap like an
    #: out-of-memory kill, not exhaust the host.
    MAX_HEAP_CELLS = 1 << 20

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

    def _run_frame(
        self, frame: Frame, skip_phis_once: bool = False
    ) -> int | float | None:
        trace_hook = self.trace_hook
        plain = not self.record_trace and trace_hook is None
        if plain and not skip_phis_once:
            # Hot path: no per-block observability, so whole superblocks
            # can run batched (counter updates and fuel checks hoisted).
            if self.step_hook is None:
                # Hottest path (golden runs): dispatch inlined, no hook
                # checks at all.
                supers = self._supers
                fuel = self.fuel
                run_super = self._run_super
                run_block = self._run_block
                while True:
                    sb = supers.get(frame.block)
                    if sb is None:
                        sb = self._compile_super(frame.block)
                    if sb.fast_ok and self.instructions + sb.weight <= fuel:
                        result = run_super(frame, sb)
                    else:
                        result = run_block(frame)
                    if result is _CONTINUE:
                        continue
                    return result.value  # type: ignore[union-attr]
            advance = self._advance_plain
            while True:
                result = advance(frame)
                if result is _CONTINUE:
                    continue
                return result.value  # type: ignore[union-attr]
        while True:
            if self.record_trace:
                self.block_trace.append((frame.func.name, frame.block.name))
            if trace_hook is not None:
                trace_hook(frame.func.name, frame.block.name)
            result = self._run_block(frame, skip_phis=skip_phis_once)
            skip_phis_once = False
            if result is _CONTINUE:
                continue
            return result.value  # type: ignore[union-attr]

    def _advance_plain(self, frame: Frame):
        """Execute one superblock (or one exact block) of ``frame``.

        Returns ``_CONTINUE`` or a ``_Return`` like the step closures.
        Chooses the batched superblock runner when the fuel ceiling
        cannot be crossed and the step hook is provably quiescent for
        the superblock's whole span; otherwise runs one block on the
        exact per-step path.  Callers must guarantee that per-block
        tracing is disabled (``record_trace`` off, no ``trace_hook``).
        """
        sb = self._supers.get(frame.block)
        if sb is None:
            sb = self._compile_super(frame.block)
        if sb.fast_ok and self.instructions + sb.weight <= self.fuel:
            hook = self.step_hook
            if hook is None or (
                self.hook_index is not None
                and (hook.fired
                     or self.instructions + sb.weight <= self.hook_index)
            ):
                return self._run_super(frame, sb)
        return self._run_block(frame)

    def _run_super(self, frame: Frame, sb: _SuperCode) -> object:
        """Batched execution of one superblock (no hooks, fuel prefits).

        Counters are charged in bulk after the chain completes; a step
        that traps is re-charged exactly: the reference loop increments
        counters *before* executing a step (so a trapping instruction is
        counted) but evaluates a phi's incoming operand before counting
        it (so a trapping phi read is not).
        """
        env = frame.env
        phis = sb.phis
        if phis:
            prev = frame.prev_block
            if sb.n_phis == 1:
                # One phi needs no parallel staging; a trapping incoming
                # read charges nothing, same as j == 0 below.
                phi, _cost, incoming = phis[0]
                if prev is None:
                    raise InterpreterError(
                        f"phi {phi.ref()} reached without a "
                        f"predecessor edge"
                    )
                get = incoming.get(prev)
                if get is None:
                    raise TrapError(
                        f"phi {phi.ref()}: no incoming entry for edge "
                        f"from ^{prev.name} (control-flow corruption?)"
                    )
                env[phi.name] = get(env)
                return self._run_super_body(frame, sb)
            staged: dict[str, int | float] = {}
            j = 0
            try:
                for phi, _cost, incoming in phis:
                    if prev is None:
                        raise InterpreterError(
                            f"phi {phi.ref()} reached without a "
                            f"predecessor edge"
                        )
                    get = incoming.get(prev)
                    if get is None:
                        raise TrapError(
                            f"phi {phi.ref()}: no incoming entry for edge "
                            f"from ^{prev.name} (control-flow corruption?)"
                        )
                    staged[phi.name] = get(env)
                    j += 1
            except BaseException:
                self.instructions += j
                self.cycles += sb.phi_prefix[j]
                raise
            env.update(staged)
        return self._run_super_body(frame, sb)

    def _run_super_body(self, frame: Frame, sb: _SuperCode) -> object:
        """Run a superblock's flat body + terminator, phis already applied."""
        i = 0
        try:
            for step in sb.body:
                step(self, frame)
                i += 1
        except BaseException:
            self.instructions += sb.n_phis + i + 1
            self.cycles += sb.phi_prefix[-1] + sb.body_prefix[i + 1]
            raise
        self.instructions += sb.weight
        self.cycles += sb.total_cycles
        return sb.term(self, frame)

    def _run_block(self, frame: Frame, skip_phis: bool = False) -> object:
        block = frame.block
        code = self._code.get(block)
        if code is None:
            code = self._compile_block(block)

        # Phi nodes evaluate in parallel against the edge just taken.
        if code.phis and not skip_phis:
            prev = frame.prev_block
            staged: dict[str, int | float] = {}
            fuel = self.fuel
            for phi, cost, incoming in code.phis:
                if prev is None:
                    raise InterpreterError(
                        f"phi {phi.ref()} reached without a predecessor edge"
                    )
                get = incoming.get(prev)
                if get is None:
                    raise TrapError(
                        f"phi {phi.ref()}: no incoming entry for edge from "
                        f"^{prev.name} (control-flow corruption?)"
                    )
                staged[phi.name] = get(frame.env)
                self.instructions += 1
                self.cycles += cost
                if self.instructions > fuel:
                    raise FuelExhausted(
                        f"instruction budget of {fuel} exhausted"
                    )
            frame.env.update(staged)

        hook = self.step_hook
        fuel = self.fuel
        for instr, cost, step in code.steps:
            if hook is not None:
                hook(self, frame, instr, self.instructions)
            self.instructions += 1
            self.cycles += cost
            if self.instructions > fuel:
                raise FuelExhausted(
                    f"instruction budget of {fuel} exhausted"
                )
            result = step(self, frame)
            if result is not None:
                return result
        raise InterpreterError(
            f"@{frame.func.name}:^{frame.block.name} fell off the end"
        )  # pragma: no cover - verifier guarantees terminators

    # -- block compilation -----------------------------------------------------

    def _compile_block(self, block: BasicBlock) -> _BlockCode:
        cost = self.cost_model.cost
        phis: list[tuple[Instruction, int, dict[BasicBlock, Callable]]] = []
        for phi in block.phis:
            incoming: dict[BasicBlock, Callable] = {}
            for value, pred in zip(phi.operands, phi.block_targets):
                # First entry wins, matching the reference lookup order.
                if pred not in incoming:
                    incoming[pred] = _operand_getter(value)
            phis.append((phi, cost(phi), incoming))
        steps = tuple(
            (instr, cost(instr), self._compile_step(block, instr))
            for instr in block.body
        )
        has_call = any(
            instr.opcode is Opcode.CALL for instr in block.body
        )
        code = _BlockCode(phis, steps, has_call)
        self._code[block] = code
        return code

    # -- superblock formation --------------------------------------------------

    def _pred_counts(self, func: Function) -> dict[BasicBlock, int]:
        """Predecessor-edge counts per block, cached per function."""
        counts = self._preds.get(func)
        if counts is None:
            counts = {block: 0 for block in func.blocks}
            for block in func.blocks:
                if block.is_terminated:
                    for target in block.terminator.block_targets:
                        counts[target] = counts.get(target, 0) + 1
            self._preds[func] = counts
        return counts

    def _compile_super(self, head: BasicBlock) -> _SuperCode:
        """Fuse the jmp-chain starting at ``head`` into one superblock.

        Formation rules (see module docstring): extend across ``jmp``
        terminators into successors that have exactly one predecessor,
        no phis, no calls, are not the function entry and are not
        already part of the chain.
        """
        func = head.parent
        assert func is not None
        preds = self._pred_counts(func)
        chain = [head]
        seen = {head}
        current = head
        while True:
            code = self._code.get(current)
            if code is None:
                code = self._compile_block(current)
            term = current.terminator
            if term.opcode is not Opcode.JMP:
                break
            target = term.block_targets[0]
            if (
                target in seen
                or target is func.entry
                or preds.get(target, 0) != 1
                or target.phis
            ):
                break
            target_code = self._code.get(target)
            if target_code is None:
                target_code = self._compile_block(target)
            if target_code.has_call:
                break
            chain.append(target)
            seen.add(target)
            current = target

        head_code = self._code[head]
        body: list[_Step] = []
        prefix = [0]
        for block in chain:
            code = self._code[block]
            # All but the final block contribute every step (their jmp
            # terminators included); the final block keeps its terminator
            # out of the flat body so its result is returned.
            last = code.steps[:-1] if block is chain[-1] else code.steps
            for _instr, cost, step in last:
                body.append(step)
                prefix.append(prefix[-1] + cost)
        _term_instr, term_cost, term_step = self._code[chain[-1]].steps[-1]
        sb = _SuperCode(
            head=head,
            blocks=tuple(chain),
            phis=head_code.phis,
            body=tuple(body),
            body_prefix=tuple(prefix),
            term=term_step,
            term_cost=term_cost,
            fast_ok=not head_code.has_call,
        )
        self._supers[head] = sb
        return sb

    def _compile_step(self, block: BasicBlock, instr: Instruction) -> _Step:
        op = instr.opcode
        ops = instr.operands
        name = instr.name
        type_ = instr.type

        if op is Opcode.RET:
            if ops:
                get = _operand_getter(ops[0])

                def step_ret(interp: Interpreter, frame: Frame) -> object:
                    return _Return(get(frame.env))

                return step_ret
            return lambda interp, frame: _RETURN_NONE

        if op is Opcode.TRAP:
            func_name = block.parent.name if block.parent else "?"
            message = f"protection trap in @{func_name}:^{block.name}"

            def step_trap(interp: Interpreter, frame: Frame) -> object:
                raise DetectionTrap(message)

            return step_trap

        if op is Opcode.JMP:
            target = instr.block_targets[0]

            def step_jmp(interp: Interpreter, frame: Frame) -> object:
                frame.prev_block = frame.block
                frame.block = target
                return _CONTINUE

            return step_jmp

        if op is Opcode.BR:
            cond = _operand_getter(ops[0])
            then_block, else_block = instr.block_targets

            def step_br(interp: Interpreter, frame: Frame) -> object:
                target = then_block if cond(frame.env) else else_block
                frame.prev_block = frame.block
                frame.block = target
                return _CONTINUE

            return step_br

        if op in _INT_ARITH:
            a, b = _operand_getter(ops[0]), _operand_getter(ops[1])
            # Wrapping is inlined with the type's mask/max/span captured
            # at compile time: ``Type.wrap`` re-derives them through
            # property lookups on every call, which dominates the hot
            # loop.  Semantics are identical (two's-complement reduce).
            mask, smax, span = _wrap_params(type_)
            if op is Opcode.ADD:
                def step(interp, frame):
                    env = frame.env
                    v = (int(a(env)) + int(b(env))) & mask
                    env[name] = v - span if v > smax else v
            elif op is Opcode.SUB:
                def step(interp, frame):
                    env = frame.env
                    v = (int(a(env)) - int(b(env))) & mask
                    env[name] = v - span if v > smax else v
            elif op is Opcode.MUL:
                def step(interp, frame):
                    env = frame.env
                    v = (int(a(env)) * int(b(env))) & mask
                    env[name] = v - span if v > smax else v
            elif op is Opcode.AND:
                def step(interp, frame):
                    env = frame.env
                    v = (int(a(env)) & int(b(env))) & mask
                    env[name] = v - span if v > smax else v
            elif op is Opcode.OR:
                def step(interp, frame):
                    env = frame.env
                    v = (int(a(env)) | int(b(env))) & mask
                    env[name] = v - span if v > smax else v
            elif op is Opcode.XOR:
                def step(interp, frame):
                    env = frame.env
                    v = (int(a(env)) ^ int(b(env))) & mask
                    env[name] = v - span if v > smax else v
            else:
                # Divisions and shifts share the reference helper: they are
                # rare in the workloads and carry trap/masking subtleties.
                def step(interp, frame, op=op, type_=type_):
                    env = frame.env
                    env[name] = _int_arith(
                        op, type_, int(a(env)), int(b(env))
                    )
            return step

        if op in _FLOAT_ARITH:
            a, b = _operand_getter(ops[0]), _operand_getter(ops[1])
            if op is Opcode.FADD:
                def step(interp, frame):
                    env = frame.env
                    env[name] = float(a(env)) + float(b(env))
            elif op is Opcode.FSUB:
                def step(interp, frame):
                    env = frame.env
                    env[name] = float(a(env)) - float(b(env))
            elif op is Opcode.FMUL:
                def step(interp, frame):
                    env = frame.env
                    env[name] = float(a(env)) * float(b(env))
            else:
                def step(interp, frame):
                    env = frame.env
                    env[name] = _float_arith(
                        Opcode.FDIV, float(a(env)), float(b(env))
                    )
            return step

        if op is Opcode.ICMP:
            assert instr.predicate is not None
            cmp = _PREDICATE_OPS[instr.predicate]
            a, b = _operand_getter(ops[0]), _operand_getter(ops[1])

            def step_icmp(interp: Interpreter, frame: Frame) -> object:
                env = frame.env
                env[name] = int(cmp(int(a(env)), int(b(env))))

            return step_icmp

        if op is Opcode.FCMP:
            assert instr.predicate is not None
            cmp = _PREDICATE_OPS[instr.predicate]
            nan_result = int(instr.predicate is Predicate.NE)
            a, b = _operand_getter(ops[0]), _operand_getter(ops[1])
            isnan = math.isnan

            def step_fcmp(interp: Interpreter, frame: Frame) -> object:
                env = frame.env
                av, bv = float(a(env)), float(b(env))
                if isnan(av) or isnan(bv):
                    env[name] = nan_result
                else:
                    env[name] = int(cmp(av, bv))

            return step_fcmp

        if op is Opcode.SITOFP:
            a = _operand_getter(ops[0])

            def step_sitofp(interp: Interpreter, frame: Frame) -> object:
                env = frame.env
                env[name] = float(int(a(env)))

            return step_sitofp

        if op is Opcode.FPTOSI:
            a = _operand_getter(ops[0])
            mask, smax, span = _wrap_params(type_)

            def step_fptosi(interp: Interpreter, frame: Frame) -> object:
                env = frame.env
                value = float(a(env))
                if math.isnan(value) or math.isinf(value):
                    raise TrapError(f"fptosi of non-finite value {value}")
                v = int(value) & mask
                env[name] = v - span if v > smax else v

            return step_fptosi

        if op is Opcode.ZEXT:
            a = _operand_getter(ops[0])
            src_mask = (1 << ops[0].type.bits) - 1
            mask, smax, span = _wrap_params(type_)

            def step_zext(interp: Interpreter, frame: Frame) -> object:
                env = frame.env
                v = int(a(env)) & src_mask & mask
                env[name] = v - span if v > smax else v

            return step_zext

        if op is Opcode.TRUNC:
            a = _operand_getter(ops[0])
            mask, smax, span = _wrap_params(type_)

            def step_trunc(interp: Interpreter, frame: Frame) -> object:
                env = frame.env
                v = int(a(env)) & mask
                env[name] = v - span if v > smax else v

            return step_trunc

        if op is Opcode.ALLOC:
            a = _operand_getter(ops[0])

            def step_alloc(interp: Interpreter, frame: Frame) -> object:
                env = frame.env
                env[name] = interp.alloc_cells(int(a(env)))

            return step_alloc

        if op is Opcode.LOAD:
            a = _operand_getter(ops[0])
            if type_.is_float:
                def step_load(interp: Interpreter, frame: Frame) -> object:
                    env = frame.env
                    address = int(a(env))
                    heap = interp.heap
                    if not 0 <= address < len(heap):
                        raise TrapError(
                            f"load from invalid address {address}"
                        )
                    env[name] = float(heap[address])
            else:
                mask, smax, span = _wrap_params(type_)

                def step_load(interp: Interpreter, frame: Frame) -> object:
                    env = frame.env
                    address = int(a(env))
                    heap = interp.heap
                    if not 0 <= address < len(heap):
                        raise TrapError(
                            f"load from invalid address {address}"
                        )
                    v = int(heap[address]) & mask
                    env[name] = v - span if v > smax else v
            return step_load

        if op is Opcode.STORE:
            value_get = _operand_getter(ops[0])
            addr_get = _operand_getter(ops[1])

            def step_store(interp: Interpreter, frame: Frame) -> object:
                env = frame.env
                # Address before value: the reference path reads them in
                # this order, which fixes which trap fires first.
                address = int(addr_get(env))
                value = value_get(env)
                heap = interp.heap
                if not 0 <= address < len(heap):
                    raise TrapError(f"store to invalid address {address}")
                heap[address] = value

            return step_store

        if op is Opcode.GEP:
            a, b = _operand_getter(ops[0]), _operand_getter(ops[1])

            def step_gep(interp: Interpreter, frame: Frame) -> object:
                env = frame.env
                env[name] = int(a(env)) + int(b(env))

            return step_gep

        if op is Opcode.SELECT:
            cond = _operand_getter(ops[0])
            a, b = _operand_getter(ops[1]), _operand_getter(ops[2])

            def step_select(interp: Interpreter, frame: Frame) -> object:
                env = frame.env
                env[name] = a(env) if cond(env) else b(env)

            return step_select

        if op is Opcode.MAG:
            a = _operand_getter(ops[0])
            k = instr.imm or 0

            def step_mag(interp: Interpreter, frame: Frame) -> object:
                env = frame.env
                env[name] = magnitude(float(a(env)), k)

            return step_mag

        if op is Opcode.SIGN:
            a = _operand_getter(ops[0])
            copysign = math.copysign

            def step_sign(interp: Interpreter, frame: Frame) -> object:
                env = frame.env
                env[name] = int(copysign(1.0, float(a(env))) < 0)

            return step_sign

        if op is Opcode.CALL:
            assert instr.callee is not None
            callee = self.module.function(instr.callee)
            getters = [_operand_getter(a) for a in ops]
            if instr.defines_value:
                def step_call(interp: Interpreter, frame: Frame) -> object:
                    env = frame.env
                    result = interp._call(callee, [g(env) for g in getters])
                    env[name] = 0 if result is None else result
            else:
                def step_call(interp: Interpreter, frame: Frame) -> object:
                    env = frame.env
                    interp._call(callee, [g(env) for g in getters])
            return step_call

        raise InterpreterError(f"unhandled opcode {op}")  # pragma: no cover


def _wrap_params(type_: Type) -> tuple[int, int, int]:
    """``(mask, signed_max, span)`` for inlined two's-complement wrapping."""
    bits = type_.bits
    return (1 << bits) - 1, (1 << (bits - 1)) - 1, 1 << bits


def _operand_getter(value: Value) -> Callable[[dict], int | float]:
    """Compile one operand to an environment accessor."""
    if isinstance(value, Constant):
        constant = value.value

        def get_const(env: dict) -> int | float:
            return constant

        return get_const
    if isinstance(value, (Argument, Instruction)):
        name = value.name
        ref = value.ref()

        def get_named(env: dict) -> int | float:
            try:
                return env[name]
            except KeyError:
                raise TrapError(f"read of undefined value {ref}") from None

        return get_named
    raise InterpreterError(f"unknown value kind {value!r}")


#: Magnitude of zero: below the smallest subnormal exponent (2**-1074).
MAG_ZERO = -1_100
#: Magnitude sentinel for infinities: above the largest finite exponent.
MAG_INF = 1_100
#: Magnitude sentinel for NaN: distinct from every finite/inf magnitude.
MAG_NAN = 2_200


def magnitude(x: float, k: int = 0) -> int:
    """Integer order of magnitude: ``floor(2**k * log2|x|)``.

    With ``k = 0`` this is the binary exponent (the paper's base scheme,
    protecting exponent and sign via a separate sign check); larger ``k``
    folds the top ``k`` mantissa bits into the magnitude, tightening the
    detectable relative error to ~2**-k.  Zero, infinity and NaN map to
    sentinels outside the finite exponent range so that flips producing
    non-finite values are always caught.
    """
    if math.isnan(x):
        return MAG_NAN << k
    if math.isinf(x):
        return MAG_INF << k
    if x == 0.0:
        return MAG_ZERO << k
    mantissa, exponent = math.frexp(abs(x))  # mantissa in [0.5, 1)
    # log2|x| = exponent + log2(mantissa), with log2(mantissa) in [-1, 0).
    return math.floor((exponent + math.log2(mantissa)) * (1 << k))


_CONTINUE = object()
_RETURN_NONE = _Return(None)

_INT_ARITH = frozenset({
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.SDIV, Opcode.SREM,
    Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.LSHR, Opcode.ASHR,
})
_FLOAT_ARITH = frozenset({Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV})

_PREDICATE_OPS = {
    Predicate.EQ: operator.eq,
    Predicate.NE: operator.ne,
    Predicate.LT: operator.lt,
    Predicate.LE: operator.le,
    Predicate.GT: operator.gt,
    Predicate.GE: operator.ge,
}


def _coerce(type_: Type, value: int | float) -> int | float:
    if type_.is_float:
        return float(value)
    if type_.is_pointer:
        return int(value)
    return type_.wrap(int(value))


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


def _float_arith(op: Opcode, a: float, b: float) -> float:
    if op is Opcode.FADD:
        return a + b
    if op is Opcode.FSUB:
        return a - b
    if op is Opcode.FMUL:
        return a * b
    if op is Opcode.FDIV:
        if b == 0.0:
            if a == 0.0 or math.isnan(a):
                return math.nan
            sign = math.copysign(1.0, a) * math.copysign(1.0, b)
            return math.inf * sign
        return a / b
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
