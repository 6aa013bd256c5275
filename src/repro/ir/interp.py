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

Every step hook says when it next acts: its ``next_index`` is the lowest
dynamic index at which it may do anything, and None means it never acts
again (a hook without the attribute is wrapped as acting at every index).
Like the paper's injector, which pauses the emulation only at the
selected time, the interpreter runs everything else at full speed.  One
frame loop serves every run, traced or not: a block runs batched — a bare
loop with the instruction/cycle counters and the fuel check hoisted out —
when it contains no call (calls re-enter the interpreter and must see
exact counters), cannot cross the fuel ceiling (so HANG trips at the
identical dynamic instruction on the per-step path) and ends at or before
``next_index``; otherwise it runs per step and the hook is called before
every body instruction, exactly like the reference semantics.  A
mid-block trap re-charges exactly the instructions executed up to and
including the trapping one (prefix-summed cycle tables).  ``record_trace``
and ``trace_hook`` see every block entry of the same loop.

Hung runs end in closed form (the hang shortcut).  When a frame of an
untraced run reaches a loop header over its back edge with ``next_index``
None, the header's :class:`~repro.ir.loops.CountedLoop` — found once
per function per code cache, its proof slice compiled then — decides
from the live environment whether every pass the remaining fuel reaches
keeps to the loop's path.  If so the run is charged exactly what the
per-step loop would count at exhaustion: with ``k, r = divmod(fuel -
instructions, W)`` for a pass of ``W`` instructions and ``C`` cycles,
``instructions = fuel + 1`` and ``cycles += k*C + prefix[r + 1]``, then
HANG.  The proof runs at most once per loop entry.

A faulted run executes only what differs from golden (golden
snapshots).  A golden run handed an empty :class:`GoldenSnapshots`
records its state at pre-phi block entries of the top frame: at
instruction 0, then at the first such entry at or after each multiple of
a power-of-two stride, the smallest that keeps at most 64 points after
instruction 0, so the table stays small however long the run.  Blocks
are stored by name and resolved per module (:meth:`GoldenSnapshots.bind`).
A run given the bound table and golden's function and arguments, with
nothing tracing, starts at the latest snapshot at or before its hook's
``next_index`` (counters, heap and previous block restored) — the prefix
is golden's, because the hook is a no-op there.  Once ``next_index`` is
None, at each later snapshot point — a block entry of the top frame
whose instruction count equals the snapshot's — the run ends with
golden's record if block, previous block, cycles and heap equal
golden's, and so does every value live there: live into the block, or
an operand its phis read on the edge from the previous block
(:mod:`repro.analysis.liveness`).  Floats are compared by their bits
and every value with its type (``-0.0 == 0.0`` and ``0 == 0.0`` are
different states).  A dead value is redefined before any read, the
interpreter is deterministic in that state and the hook never acts
again, so the rest of the run would be golden's, which fits the fuel.
:class:`repro.ir.refinterp.ReferenceInterpreter` keeps the original
dispatch loop as a differential oracle and perf baseline.
"""

from __future__ import annotations

import enum
import math
import operator
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate
from typing import Callable

from repro.errors import (
    DetectionTrap, FuelExhausted, InterpreterError, IRError, TrapError,
)
from repro.ir.block import BasicBlock
from repro.ir.costmodel import CORTEX_A53, CostModel
from repro.ir.function import Function
from repro.ir.instructions import Instruction, Opcode, Predicate
from repro.ir.loops import CountedLoop, counted_loops
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
        snapshots: the snapshot table the run recorded, when it was
            handed an empty :class:`GoldenSnapshots` and finished OK.
    """

    status: ExecutionStatus
    value: int | float | None
    cycles: int
    instructions: int
    block_trace: list[tuple[str, str]] = field(default_factory=list)
    trap_reason: str = ""
    snapshots: GoldenSnapshots | None = field(
        default=None, compare=False, repr=False
    )

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


#: Called before each body instruction: (interpreter, frame, instruction,
#: dynamic index).  May mutate frame.env / interpreter.heap to model an SEU.
#: Its ``next_index`` attribute is the lowest index at which it may act
#: (None: never again); the interpreter need not call it below that.
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

    Exact accounting data for batched execution:

    * ``body`` — the bare steps before the terminator, whose step is
      ``term``;
    * ``phi_prefix[j]`` — cycles of the first ``j`` phis;
    * ``body_prefix[k]`` — cycles of the first ``k`` body steps;
    * ``weight`` — dynamic instructions of a full pass (phis + body +
      terminator);
    * ``total_cycles`` — cycles of a full pass.

    Hang shortcut data:

    * ``loop`` — the :class:`~repro.ir.loops.CountedLoop` this block
      heads, if any: its proof and pass accounting;
    * ``loops`` — on a function's entry block, the function's counted
      loops by header once they were found (None before).
    """

    __slots__ = (
        "phis", "steps", "has_call", "n_phis", "phi_prefix", "body",
        "body_prefix", "term", "weight", "total_cycles", "loop", "loops",
    )

    def __init__(
        self,
        phis: list[tuple[Instruction, int, dict[BasicBlock, Callable]]],
        steps: tuple[tuple[Instruction, int, _Step], ...],
        has_call: bool,
    ) -> None:
        self.phis = phis
        self.steps = steps
        self.has_call = has_call
        self.n_phis = len(phis)
        self.phi_prefix = tuple(
            accumulate((cost for _phi, cost, _incoming in phis), initial=0)
        )
        *body, (_term_instr, term_cost, self.term) = steps
        self.body = tuple(step for _instr, _cost, step in body)
        self.body_prefix = tuple(
            accumulate((cost for _instr, cost, _step in body), initial=0)
        )
        self.weight = self.n_phis + len(steps)
        self.total_cycles = (
            self.phi_prefix[-1] + self.body_prefix[-1] + term_cost
        )
        self.loop: CountedLoop | None = None
        self.loops: dict[BasicBlock, CountedLoop] | None = None


#: Snapshot points a golden run keeps after the one at instruction 0.
_SNAPSHOT_POINTS = 64
#: ``_next_at`` of a frame that never reaches a snapshot point.
_NEVER = sys.maxsize


class GoldenSnapshots:
    """Block-entry snapshots of one golden run, blocks stored by name.

    Filled by the :meth:`Interpreter.run` of an interpreter constructed
    with the empty table, which must be the golden run itself (no step
    hook, no tracing; any other run leaves the table empty).  Each point
    is ``(instructions, cycles, block, previous block, env, heap)`` at a
    pre-phi block entry of the top frame, the whole env kept; ``result``
    is golden's ``(value, cycles, instructions)`` once the run finished
    OK.

    Names, not objects: the golden cache serves this table to every
    module with the same printed IR, and a run must execute its own
    module's blocks (their code cache holds its loop proofs).
    :meth:`bind` resolves the names against one module.
    """

    def __init__(self) -> None:
        self.func = ""
        self.points: list[tuple] = []
        self.result: tuple[int | float | None, int, int] | None = None
        # Recording state: each point's trigger (the stride multiple it
        # stands for), the stride and the next trigger.
        self._triggers: list[int] = []
        self._stride = 1
        self._next = 0
        # Per point, the names live there and golden's values for them.
        self._live: list[tuple[tuple[str, ...], tuple]] | None = None

    def bind(self, module: Module) -> BoundSnapshots | None:
        """The table with ``module``'s blocks; None if golden never finished.

        ``module`` must be the golden run's module or one with identical
        printed IR.  The first bind computes each point's live names,
        which every later bind of this table shares.
        """
        if self.result is None:
            return None
        func = module.function(self.func)
        blocks = {block.name: block for block in func.blocks}
        if self._live is None:
            # Lazy: repro.analysis imports the IR, this module included.
            from repro.analysis.liveness import LivenessAnalysis, liveness

            live_in = liveness(func).live_in
            edge_fact = LivenessAnalysis().edge_fact
            self._live = []
            for _n, _cycles, block, prev, env, _heap in self.points:
                names = live_in[block]
                if prev is not None:  # plus the phi operands from prev
                    names = edge_fact(blocks[prev], blocks[block], names)
                names = tuple(sorted(env.keys() & names))
                self._live.append((names, tuple(map(env.get, names))))
        return BoundSnapshots(func, [
            (n, cycles, blocks[block],
             None if prev is None else blocks[prev], env, heap, *live)
            for (n, cycles, block, prev, env, heap), live
            in zip(self.points, self._live)
        ], self.result)

    def _record(self, frame: Frame, interp: Interpreter) -> int:
        """Take a point at this block entry; returns the next trigger.

        Past the cap the stride doubles and only the points that are the
        first entry at or after a multiple of the new stride stay, so the
        table equals what that stride would have recorded from the start.
        """
        prev = frame.prev_block
        n = interp.instructions
        self.points.append((
            n, interp.cycles, frame.block.name,
            None if prev is None else prev.name,
            dict(frame.env), list(interp.heap),
        ))
        self._triggers.append(self._next)
        stride = self._stride
        if len(self.points) > _SNAPSHOT_POINTS + 1:
            stride = self._stride = stride * 2
            kept = [
                (multiple, point)
                for trigger, point in zip(self._triggers, self.points)
                if (multiple := -(-trigger // stride) * stride) <= point[0]
            ]
            self._triggers = [trigger for trigger, _point in kept]
            self.points = [point for _trigger, point in kept]
        self._next = (n // stride + 1) * stride
        return self._next


class BoundSnapshots:
    """A :class:`GoldenSnapshots` table resolved against one module.

    Handed to :class:`Interpreter` as ``snapshots``: a run starts at the
    latest point at or before its hook's ``next_index``, golden's whole
    env restored, and ends with golden's record at the first later point
    where its live state equals golden's (see the module docstring).
    Each point adds the names live there and golden's values for them.
    """

    __slots__ = ("func", "points", "counts", "value", "cycles", "instructions")

    def __init__(
        self,
        func: Function,
        points: list[tuple],
        result: tuple[int | float | None, int, int],
    ) -> None:
        self.func = func
        self.points = points
        self.counts = [point[0] for point in points]
        self.value, self.cycles, self.instructions = result

    def start(self, frame: Frame, interp: Interpreter) -> Frame:
        """The frame a run of ``frame``'s entry starts from.

        The latest point at or before the hook's ``next_index`` (the
        last point when there is no hook or it is None), counters and
        heap restored, when ``frame`` — the entry frame of the run —
        holds golden's function and arguments and the fuel covers
        golden; else ``frame`` itself, from instruction 0.
        """
        at = getattr(interp.step_hook, "next_index", None)  # None: no hook
        i = bisect_right(self.counts, _NEVER if at is None else at) - 1
        entry_env = self.points[0][4]
        if (
            frame.func is not self.func or i < 0
            or self.instructions > interp.fuel
            or not _same_values(frame.env, entry_env)
        ):
            return frame
        # The whole env: a register fault draws among all its names.
        n, cycles, block, prev, env, heap, _names, _values = self.points[i]
        interp.instructions = n
        interp.cycles = cycles
        interp.heap = list(heap)
        interp._next_at = (
            self.counts[i + 1] if i + 1 < len(self.counts) else _NEVER
        )
        return Frame(func=frame.func, env=dict(env), block=block,
                     prev_block=prev)

    def rejoined(self, frame: Frame, interp: Interpreter) -> int | None:
        """At a top-frame block entry at or past the next point.

        Returns None when the hook never acts again (no hook, or its
        ``next_index`` is None) and the run's state equals golden's at a
        point with this instruction count — its values live there, not
        its whole env; else the instruction count of the next point.
        """
        counts = self.counts
        n = interp.instructions
        i = bisect_left(counts, n)
        if i < len(counts) and counts[i] == n:
            _n, cycles, block, prev, _env, heap, names, values = \
                self.points[i]
            if (
                getattr(interp.step_hook, "next_index", None) is None
                and frame.block is block and frame.prev_block is prev
                and interp.cycles == cycles
                and _same_values(tuple(map(frame.env.get, names)), values)
                and _same_values(interp.heap, heap)
            ):
                return None
            i += 1
        return counts[i] if i < len(counts) else _NEVER


def _same_values(a: dict | tuple | list, b: dict | tuple | list) -> bool:
    """``a == b`` with floats compared by their bits, every value by type.

    Python's ``-0.0 == 0.0`` and ``0 == 0.0`` hold, yet the interpreter
    treats those values differently (``fdiv 1.0, -0.0`` is ``-inf``).
    Value-equal floats differ in bits only as signed zeros; NaNs in
    distinct objects compare unequal, which only costs a missed rejoin.
    """
    if a != b:
        return False
    pairs = zip(a.values(), map(b.__getitem__, a)) if isinstance(a, dict) \
        else zip(a, b)
    copysign = math.copysign
    return all(
        type(x) is type(y) and (x != 0 or copysign(1.0, x) == copysign(1.0, y))
        for x, y in pairs
    )


class Interpreter:
    """Executes IR modules.

    Attributes:
        module: the module under execution.
        cost_model: per-instruction cycle charges.
        heap: flat list of 8-byte cells shared by all frames.
        fuel: maximum dynamic instructions before declaring a hang.

    Args:
        step_hook: optional :data:`StepHook`, its ``next_index`` read at
            every block entry (see the module docstring).  A hook without
            the attribute is wrapped once, here, to act at every index.
        code_cache: optional dict reused across interpreter instances to
            share compiled blocks.  Callers must only share a cache between
            interpreters with the same module (not mutated in between) and
            the same cost model — fault-injection campaigns satisfy both.
        trace_hook: optional ``(func_name, block_name)`` callback fired on
            every block entry (the observability layer's block-transition
            tracing).
        snapshots: the golden run's snapshot table.  An empty
            :class:`GoldenSnapshots` is filled by this interpreter's
            golden run; a :class:`BoundSnapshots` for this module lets
            untraced runs start late and stop early.
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
        snapshots: GoldenSnapshots | BoundSnapshots | None = None,
    ) -> None:
        self.module = module
        self.cost_model = cost_model
        self.fuel = fuel
        self.record_trace = record_trace
        if step_hook is not None and not hasattr(step_hook, "next_index"):
            # May act at every index; a partial takes the attribute a
            # bound method or builtin would refuse.
            step_hook = partial(step_hook)
            step_hook.next_index = 0
        self.step_hook = step_hook
        self.trace_hook = trace_hook
        self.snapshots = snapshots
        #: instruction count of the top frame's next snapshot point.
        self._next_at = _NEVER
        self.heap: list[int | float] = []
        self.cycles = 0
        self.instructions = 0
        self.block_trace: list[tuple[str, str]] = []
        self.frames: list[Frame] = []
        self._code: dict[BasicBlock, _BlockCode] = (
            code_cache if code_cache is not None else {}
        )

    # -- public API -----------------------------------------------------------

    def run(self, func_name: str, args: list[int | float]) -> ExecutionResult:
        """Execute ``func_name`` with ``args`` and classify the outcome.

        With ``snapshots`` this is either the golden run filling an empty
        table or a run that may start late and stop early (see the
        module docstring).
        """
        self.heap = []
        self.cycles = 0
        self.instructions = 0
        self.block_trace = []
        self.frames = []
        self._next_at = _NEVER
        frame = self._entry_frame(self.module.function(func_name), args)
        table = self.snapshots
        untraced = not self.record_trace and self.trace_hook is None
        recording = (
            isinstance(table, GoldenSnapshots) and not table.points
            and self.step_hook is None and untraced
        )
        if recording:
            table.func = func_name
            self._next_at = 0
        elif isinstance(table, BoundSnapshots) and untraced:
            frame = table.start(frame, self)
        result = self._execute(frame)
        if recording and result.ok:
            table.result = (result.value, result.cycles, result.instructions)
            result.snapshots = table
        return result

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
        fires).  The resumed block therefore runs once per step with its
        phis skipped — re-running phis against a post-phi environment is
        not idempotent (e.g. a loop-carried swap) — and the run then
        continues in the hot loop.  Cycle and instruction counters pick
        up from the checkpointed values so overhead accounting stays
        honest.
        """
        self.heap = list(heap)
        self.cycles = cycles
        self.instructions = instructions
        self.block_trace = []
        self.frames = []
        self._next_at = _NEVER
        func = self.module.function(func_name)
        frame = Frame(func=func, env=dict(env), block=func.block(block_name))
        return self._execute(frame, resumed=True)

    def _execute(self, frame: Frame, resumed: bool = False) -> ExecutionResult:
        """Run ``frame`` as the top frame and classify the outcome."""
        self.frames.append(frame)
        try:
            try:
                if resumed:
                    value = self._run_resumed(frame)
                else:
                    value = self._run_frame(frame)
            finally:
                self.frames.pop()
            status, reason = ExecutionStatus.OK, ""
        except DetectionTrap as exc:
            value, status, reason = None, ExecutionStatus.DETECTED, str(exc)
        except TrapError as exc:
            value, status, reason = None, ExecutionStatus.TRAP, str(exc)
        except FuelExhausted as exc:
            value, status, reason = None, ExecutionStatus.HANG, str(exc)
        if value is _REJOINED:
            # The rest of the run is golden's: so is its record.
            table = self.snapshots
            value = table.value
            self.cycles, self.instructions = table.cycles, table.instructions
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
        frame = self._entry_frame(func, args)
        self.frames.append(frame)
        try:
            return self._run_frame(frame)
        finally:
            self.frames.pop()

    @staticmethod
    def _entry_frame(func: Function, args: list[int | float]) -> Frame:
        if len(args) != len(func.args):
            raise InterpreterError(
                f"@{func.name} expects {len(func.args)} args, got {len(args)}"
            )
        env: dict[str, int | float] = {}
        for formal, actual in zip(func.args, args):
            env[formal.name] = _coerce(formal.type, actual)
        return Frame(func=func, env=env, block=func.entry)

    def _run_resumed(self, frame: Frame) -> int | float | None:
        """The resumed block per step with its phis skipped, then the rest."""
        if self.record_trace:
            self.block_trace.append((frame.func.name, frame.block.name))
        if self.trace_hook is not None:
            self.trace_hook(frame.func.name, frame.block.name)
        result = self._run_block(frame, skip_phis=True)
        if result is _CONTINUE:
            return self._run_frame(frame)
        return result.value  # type: ignore[union-attr]

    def _run_frame(self, frame: Frame) -> int | float | None:
        # One loop for every run.  A block runs batched (counter updates
        # and fuel check hoisted) when it has no call, cannot cross the
        # fuel ceiling and ends at or before the hook's ``next_index``;
        # otherwise it runs on the exact per-step path.
        code_cache = self._code
        fuel = self.fuel
        hook = self.step_hook
        record = self.record_trace
        trace_hook = self.trace_hook
        traced = record or trace_hook is not None
        run_batched = self._run_batched
        run_block = self._run_block
        if not traced:
            self._find_loops(frame.func)
        tried = None  # the loop whose proof ran since it was entered
        # Golden snapshot points are block entries of the top frame.
        next_at = self._next_at if len(self.frames) == 1 else _NEVER
        while True:
            if traced:
                if record:
                    self.block_trace.append((frame.func.name, frame.block.name))
                if trace_hook is not None:
                    trace_hook(frame.func.name, frame.block.name)
            at = None if hook is None else hook.next_index
            if self.instructions >= next_at:
                table = self.snapshots
                if isinstance(table, GoldenSnapshots):
                    next_at = table._record(frame, self)
                else:
                    next_at = table.rejoined(frame, self)
                    if next_at is None:
                        return _REJOINED  # type: ignore[return-value]
            code = code_cache.get(frame.block)
            if code is None:
                code = self._compile_block(frame.block)
            loop = code.loop
            if loop is not None:
                if frame.prev_block is not loop.latch:
                    tried = None
                elif loop is not tried and at is None and not traced:
                    # Hang shortcut: back at the header with the hook
                    # done for good.  If the path provably keeps looping
                    # past the fuel, charge what the per-step loop
                    # would: k full passes, then the first r + 1
                    # instructions of the next, the last one tripping.
                    tried = loop
                    k, r = divmod(fuel - self.instructions, loop.weight)
                    if loop.spins(frame.env, k):
                        self.instructions = fuel + 1
                        self.cycles += k * loop.cycles + loop.prefix[r + 1]
                        raise FuelExhausted(
                            f"instruction budget of {fuel} exhausted"
                        )
            end = self.instructions + code.weight
            if not code.has_call and end <= fuel and (at is None or end <= at):
                result = run_batched(frame, code)
            else:
                result = run_block(frame)
            if result is _CONTINUE:
                continue
            return result.value  # type: ignore[union-attr]

    def _run_batched(self, frame: Frame, code: _BlockCode) -> object:
        """Batched execution of one block (hook idle, fuel prefits).

        Counters are charged in bulk after the block completes; a step
        that traps is re-charged exactly: the reference loop increments
        counters *before* executing a step (so a trapping instruction is
        counted) but evaluates a phi's incoming operand before counting
        it (so a trapping phi read is not).
        """
        env = frame.env
        phis = code.phis
        if phis:
            prev = frame.prev_block
            if code.n_phis == 1:
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
                return self._run_batched_body(frame, code)
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
                self.cycles += code.phi_prefix[j]
                raise
            env.update(staged)
        return self._run_batched_body(frame, code)

    def _run_batched_body(self, frame: Frame, code: _BlockCode) -> object:
        """Run a block's body + terminator in bulk, phis already applied."""
        i = 0
        try:
            for step in code.body:
                step(self, frame)
                i += 1
        except BaseException:
            self.instructions += code.n_phis + i + 1
            self.cycles += code.phi_prefix[-1] + code.body_prefix[i + 1]
            raise
        self.instructions += code.weight
        self.cycles += code.total_cycles
        return code.term(self, frame)

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
        # Batched runs split the terminator off the body; the verifier
        # rejects unterminated blocks, and so does this, before they run.
        if not block.is_terminated:
            raise IRError(f"block ^{block.name} has no terminator")
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

    def _find_loops(self, func: Function) -> None:
        """Attach ``func``'s counted loops to their header blocks.

        Once per function per code cache: the entry block's code keeps
        the result.  Lazy, so traced runs, which never take the shortcut,
        do not pay for the search.
        """
        entry = self._code.get(func.entry) or self._compile_block(func.entry)
        if entry.loops is None:
            entry.loops = counted_loops(func, self.cost_model.cost)
            for header, loop in entry.loops.items():
                code = self._code.get(header) or self._compile_block(header)
                code.loop = loop

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
#: Returned by the top frame when its run rejoined golden.
_REJOINED = object()

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
