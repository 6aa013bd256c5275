"""IR interpreter with cycle accounting, tracing and fault hooks.

This is the execution substrate for the SEU experiments: programs run under
an instruction budget (hang detection), every dynamic instruction is charged
cycles from a :class:`~repro.ir.costmodel.CostModel`, the executed-block
trace can be recorded (consumed by the DMR control-flow monitor), and a
``step_hook`` fires between instructions so fault injectors can corrupt live
register state at a precise dynamic instruction index — the same granularity
the paper's QEMU framework provides (sect. 4.2).

Execution translates each basic block, the first time it runs, into
Python functions generated from its IR and ``compile``-d once, as QEMU
translates each guest block into host code: one statement per
instruction, with operands, cycle costs and branch targets resolved
then, so a run does no opcode dispatch and no cost-model lookup.  One
emitter (:meth:`_BlockCode.emit`) writes a batched and a stepped
variant of each block.  The compiled code is kept in the module's
record (:class:`ModuleRecord`), one cache per cost model
(:func:`module_code`), beside the module's golden runs, and shared by
every run: a campaign's golden run and all its trials, the one run that
records a golden run's site table, and every later campaign over the
same module.

Every step hook says when it next acts: its ``next_index`` is the lowest
dynamic index at which it may do anything, and None means it never acts
again (a hook without the attribute is wrapped as acting at every index).
Like the paper's injector, which pauses the emulation only at the
selected time, the interpreter runs everything else at full speed.  One
frame loop serves every run, traced or not: a block runs batched — its
values in locals, the instruction/cycle counters charged in bulk and no
fuel check — when it contains no call (calls re-enter the interpreter and must see
exact counters), cannot cross the fuel ceiling (so HANG trips at the
identical dynamic instruction on the per-step path) and ends at or before
``next_index``; otherwise it runs per step and the hook is called before
every body instruction, exactly like the reference semantics.  A trap in
a batched block is charged exactly the instructions executed up to and
including the trapping one, by the line of the generated function it
left (prefix-summed cycle tables).  ``record_trace`` sees every block
entry of the same loop.

Hung runs end in closed form (the hang shortcut).  When a frame of an
untraced run reaches a loop header over its back edge with ``next_index``
None, the header's :class:`~repro.ir.loops.CountedLoop` — found once
per function per module, its proof slice compiled then — decides
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
instruction 0, so the table stays small however long the run.  It
holds the module's own blocks, and the names live at each point with
golden's values for them, computed once when the run finishes.  A run
of the same module given the finished table and golden's function and
arguments, with nothing tracing, starts at the latest snapshot at or
before its hook's ``next_index`` (counters, heap and previous block
restored) — the prefix is golden's, because the hook is a no-op there.
Once ``next_index`` is None, at each later snapshot point — a block
entry of the top frame whose instruction count equals the snapshot's —
the run ends with golden's record if block, previous block, cycles and
heap equal golden's, and so does every value live there: live into the
block, or an operand its phis read on the edge from the previous block
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
from repro.ir.printer import module_fingerprint
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


class _BlockCode:
    """One basic block's accounting and its generated Python functions.

    Created at the block's first execution.  Each function is emitted
    from the IR by :meth:`emit` and compiled the first time it is
    needed; a block's functions return ``_CONTINUE`` after a branch (the
    frame's ``block`` and ``prev_block`` moved) or a :class:`_Return`.

    * ``batched(interp, frame)`` — phis, body and terminator with every
      value in a local (and still written to ``frame.env``), no hook and
      no fuel check.  It charges the block's counters in bulk just
      before its terminator.  ``charges[line]`` is what a trap raised on
      source line ``line`` (its ``tb_lineno``) adds instead: phi ``j``
      charges ``j`` instructions and ``phi_prefix[j]`` cycles (a
      trapping phi read is not counted), body step ``i`` charges
      ``n_phis + i + 1`` instructions and ``phi_prefix[-1] +
      body_prefix[i + 1]`` cycles (the trapping one is), the terminator
      nothing more.
    * ``stepped(interp, frame, hook, phis)`` — the reference semantics:
      every operand read from ``frame.env`` (a hook may change any
      value), each phi counted and fuel-checked after it is read, and
      before each body instruction the hook called, the instruction
      counted and the fuel checked.  ``phis`` false skips the phis
      (:meth:`Interpreter.resume`).

    Attributes:
        has_call: whether any body instruction is a call.  Calls re-enter
            the interpreter, which must observe exact counters, so blocks
            with calls never run batched.
        costs: cycles of each instruction, phis first.
        phi_prefix, body_prefix: cycles of the first ``j`` phis and of
            the first ``k`` body instructions before the terminator.
        weight: dynamic instructions of a full pass (phis + body +
            terminator); ``total_cycles`` its cycles.
        loop: the :class:`~repro.ir.loops.CountedLoop` this block heads,
            if any: its proof and pass accounting.
        loops, types: on a function's entry block, the function's counted
            loops by header and the declared type of each of its values,
            once found (None before).
    """

    __slots__ = (
        "block", "costs", "has_call", "n_phis", "phi_prefix", "body_prefix",
        "weight", "total_cycles", "batched", "charges", "stepped", "loop",
        "loops", "types",
    )

    def __init__(self, block: BasicBlock, cost: Callable) -> None:
        # Batched runs charge the terminator apart from the body; the
        # verifier rejects unterminated blocks, and so does this, before
        # they run.
        if not block.is_terminated:
            raise IRError(f"block ^{block.name} has no terminator")
        self.block = block
        self.costs = tuple(map(cost, block.instructions))
        self.n_phis = n_phis = len(block.phis)
        self.has_call = any(
            instr.opcode is Opcode.CALL for instr in block.instructions
        )
        self.phi_prefix = tuple(accumulate(self.costs[:n_phis], initial=0))
        self.body_prefix = tuple(accumulate(self.costs[n_phis:-1], initial=0))
        self.weight = len(self.costs)
        self.total_cycles = sum(self.costs)
        self.batched: Callable | None = None
        self.charges: tuple[tuple[int, int], ...] = ()
        self.stepped: Callable | None = None
        self.loop: CountedLoop | None = None
        self.loops: dict[BasicBlock, CountedLoop] | None = None
        self.types: dict[str, Type] | None = None

    def emit(self, module: Module, hooked: bool) -> Callable:
        """Generate and compile the block's stepped or batched function.

        The one code generator of the interpreter: see :class:`_Source`.
        """
        block = self.block
        steps = block.instructions[self.n_phis:]
        src = _Source(hooked)
        src.indent = 0
        src.line("def _run(interp, frame, hook, phis):" if hooked
                 else "def _run(interp, frame):")
        src.indent = 1
        src.line("env = frame.env")
        if hooked:
            src.line("fuel = interp.fuel")
        elif any(i.opcode in (Opcode.LOAD, Opcode.STORE) for i in steps):
            src.line("heap = interp.heap")  # alloc extends it in place
        if self.n_phis:
            if hooked:
                src.line("if phis:")
                src.indent = 2
            src.phis(self)
            src.indent = 1
        last = len(steps) - 1
        for i, instr in enumerate(steps):
            index = self.n_phis + i
            if i < last:
                src.charge = (
                    index + 1, self.phi_prefix[-1] + self.body_prefix[i + 1]
                )
            else:
                src.charge = (0, 0)  # charged in bulk just before
            if hooked:
                src.line("if hook is not None:")
                src.line(f"    hook(interp, frame, {src.bind(instr)}, "
                         "interp.instructions)")
                src.line("    env = frame.env")
                src.count(self.costs[index])
            elif i == last:
                src.line(f"interp.instructions += {self.weight}")
                src.line(f"interp.cycles += {self.total_cycles}")
            src.instruction(instr, module)
        func = block.parent.name if block.parent else "?"
        exec(compile(
            "\n".join(src.lines), f"<block @{func}:^{block.name}>", "exec"
        ), src.names)
        run = src.names["_run"]
        if hooked:
            self.stepped = run
        else:
            self.batched, self.charges = run, tuple(src.charges)
        return run


class ModuleRecord:
    """What every run and plan over one module's IR share, on the module.

    ``code`` holds the compiled blocks, one ``(cost_model, blocks)`` pair
    per cost model (:func:`module_code`).  ``golden`` holds the module's
    golden runs, one ``((func_name, repr(args), cost_model), run)`` entry
    each (:func:`repro.faults.campaign.run_golden`); a run's snapshot table
    holds this module's blocks, and keeps the run's site table
    (:class:`repro.faults.seu.SiteTable`) once the first pruned campaign
    that plans from the run has recorded it
    (:func:`repro.faults.campaign.golden_sites`).  ``masking`` is the
    module's masking report, computed by the first pruned campaign over
    it (:func:`repro.faults.campaign.prune_masked_trials`), None until
    then.  All were derived from the printed IR whose hash is
    ``fingerprint`` (None while unchecked), and all go when that IR
    changes.
    """

    __slots__ = ("fingerprint", "code", "golden", "masking")

    def __init__(self, fingerprint: str | None) -> None:
        self.fingerprint = fingerprint
        self.code: list[tuple[CostModel, dict[BasicBlock, _BlockCode]]] = []
        self.golden: list[tuple[tuple, ExecutionResult]] = []
        self.masking = None


def module_record(
    module: Module, fingerprint: str | None = None
) -> ModuleRecord:
    """``module``'s shared record, kept on the module object.

    It dies with the module, and a clone, even one with identical IR,
    starts its own.  ``fingerprint`` is the module's printed-IR hash
    (:func:`repro.ir.printer.module_fingerprint`); a record derived from
    other IR, or unchecked, is replaced by an empty one first.  Without
    one the record is returned unchecked, which is sound only while the
    module cannot have changed since its last check: a campaign checks
    once, in its golden lookup, and shares the record with its planning
    and its trials.
    """
    record = module._code
    if record is None or (
        fingerprint is not None and record.fingerprint != fingerprint
    ):
        record = module._code = ModuleRecord(fingerprint)
    return record


def module_code(
    module: Module, cost_model: CostModel, fingerprint: str | None = None
) -> dict[BasicBlock, _BlockCode]:
    """The compiled blocks every run of ``module`` under ``cost_model`` shares.

    Kept in the module's record (:func:`module_record`, which checks
    ``fingerprint``), so a clone compiles its own: compiled code holds
    its module's blocks, and the hang shortcut recognises a loop by them.
    """
    record = module_record(module, fingerprint)
    for model, blocks in record.code:
        if model == cost_model:
            return blocks
    blocks = {}
    record.code.append((cost_model, blocks))
    return blocks


#: Snapshot points a golden run keeps after the one at instruction 0.
_SNAPSHOT_POINTS = 64
#: ``_next_at`` of a frame that never reaches a snapshot point.
_NEVER = sys.maxsize


class GoldenSnapshots:
    """Block-entry snapshots of one golden run, on its module's blocks.

    Filled by the :meth:`Interpreter.run` of an interpreter constructed
    with the empty table, which must be the golden run itself (no step
    hook, no tracing; any other run leaves the table empty).  Each point
    is ``(instructions, cycles, block, previous block, env, heap, names,
    values)`` at a pre-phi block entry of the top frame: the whole env,
    and the names live there with golden's values for them, computed
    once when the run finished OK.  Then ``func`` is golden's entry
    function, ``result`` its ``(value, cycles, instructions)``, and the
    run returns the table as its ``snapshots``.

    Handed as ``snapshots`` to a later run of the same module, the
    finished table lets it start at the latest point at or before its
    hook's ``next_index``, golden's whole env restored, and end with
    golden's record at the first later point where its live state
    equals golden's (see the module docstring).  It serves that module
    only, whose record keeps it with the golden run.  ``sites`` is the
    run's register-fault site table
    (:func:`repro.faults.campaign.golden_sites`), None until a pruned
    campaign first plans from the run.
    """

    __slots__ = (
        "func", "points", "counts", "result", "sites", "_triggers",
        "_stride", "_next",
    )

    def __init__(self) -> None:
        self.func: Function | None = None
        self.points: list[tuple] = []
        self.counts: list[int] = []
        self.result: tuple[int | float | None, int, int] | None = None
        self.sites = None
        # Recording state: each point's trigger (the stride multiple it
        # stands for), the stride and the next trigger.
        self._triggers: list[int] = []
        self._stride = 1
        self._next = 0

    def _record(self, frame: Frame, interp: Interpreter) -> int:
        """Take a point at this block entry; returns the next trigger.

        Past the cap the stride doubles and only the points that are the
        first entry at or after a multiple of the new stride stay, so the
        table equals what that stride would have recorded from the start.
        """
        n = interp.instructions
        self.points.append((
            n, interp.cycles, frame.block, frame.prev_block,
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

    def _finish(self, func: Function, result: ExecutionResult) -> None:
        """Close the table of golden's OK run of ``func``.

        Each point gains the names live there — live into its block, or
        read by the block's phis on the edge from the previous block —
        and golden's values for them.
        """
        # Lazy: repro.analysis imports the IR, this module included.
        from repro.analysis.liveness import LivenessAnalysis, liveness

        live_in = liveness(func).live_in
        edge_fact = LivenessAnalysis().edge_fact
        points = []
        for point in self.points:
            _n, _cycles, block, prev, env, _heap = point
            names = live_in[block.name]
            if prev is not None:
                names = edge_fact(prev, block, names)
            names = tuple(sorted(env.keys() & names))
            points.append((*point, names, tuple(map(env.get, names))))
        self.points = points
        self.counts = [point[0] for point in points]
        self.func = func
        self.result = (result.value, result.cycles, result.instructions)

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
            or self.result[2] > interp.fuel
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
        code_cache: the compiled blocks to run.  By default the module's
            shared code (:func:`module_code`), checked here against the
            module's printed IR; a campaign, which checks it once, passes
            it in.  A caller's own dict must only be shared between
            interpreters with the same module (not mutated in between)
            and the same cost model.
        snapshots: a golden run's snapshot table.  An empty
            :class:`GoldenSnapshots` is filled by this interpreter's
            golden run; a finished one of this module lets untraced
            runs start late and stop early.
    """

    def __init__(
        self,
        module: Module,
        cost_model: CostModel = CORTEX_A53,
        fuel: int = 5_000_000,
        record_trace: bool = False,
        step_hook: StepHook | None = None,
        code_cache: dict[BasicBlock, _BlockCode] | None = None,
        snapshots: GoldenSnapshots | None = None,
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
        self.snapshots = snapshots
        #: instruction count of the top frame's next snapshot point.
        self._next_at = _NEVER
        self.heap: list[int | float] = []
        self.cycles = 0
        self.instructions = 0
        self.block_trace: list[tuple[str, str]] = []
        self.frames: list[Frame] = []
        if code_cache is None:
            code_cache = module_code(
                module, cost_model, module_fingerprint(module)
            )
        self._code: dict[BasicBlock, _BlockCode] = code_cache

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
        recording = False
        if table is not None and not self.record_trace:
            if table.result is not None:
                frame = table.start(frame, self)
            elif not table.points and self.step_hook is None:
                recording = True
                self._next_at = 0
        result = self._execute(frame)
        if recording and result.ok:
            table._finish(frame.func, result)
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
            value, self.cycles, self.instructions = self.snapshots.result
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
        result = self._run_block(frame, skip_phis=True)
        if result is _CONTINUE:
            return self._run_frame(frame)
        return result.value  # type: ignore[union-attr]

    def _run_frame(self, frame: Frame) -> int | float | None:
        # One loop for every run.  A block runs batched (counters charged
        # in bulk, no fuel check) when it has no call, cannot cross the
        # fuel ceiling and ends at or before the hook's ``next_index``;
        # otherwise it runs on the exact per-step path.
        code_cache = self._code
        fuel = self.fuel
        hook = self.step_hook
        traced = self.record_trace
        run_batched = self._run_batched
        run_block = self._run_block
        if not traced:
            self._find_loops(frame.func)
        tried = None  # the loop whose proof ran since it was entered
        # Golden snapshot points are block entries of the top frame.
        next_at = self._next_at if len(self.frames) == 1 else _NEVER
        while True:
            if traced:
                self.block_trace.append((frame.func.name, frame.block.name))
            at = None if hook is None else hook.next_index
            if self.instructions >= next_at:
                table = self.snapshots
                if table.result is None:
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
        """One block batched (hook idle, fuel prefits).

        The block's batched function charges the counters in bulk; a
        trap is charged exactly from ``code.charges`` by the line of the
        generated frame it left: the reference loop counts an instruction
        *before* executing it (so a trapping instruction is counted) but
        reads a phi's incoming operand before counting it (so a trapping
        phi read is not).
        """
        run = code.batched or code.emit(self.module, hooked=False)
        try:
            return run(self, frame)
        except BaseException as exc:
            line = exc.__traceback__.tb_next  # the generated frame
            if line is not None:  # None: raised entering it
                instructions, cycles = code.charges[line.tb_lineno]
                # Kept, the traceback would pin this frame, and every
                # frame above it, in a cycle until the cyclic GC runs.
                line = None
                self.instructions += instructions
                self.cycles += cycles
                _undefined_read(exc)
            raise

    def _run_block(self, frame: Frame, skip_phis: bool = False) -> object:
        """One block per step, hook called before every body instruction."""
        block = frame.block
        code = self._code.get(block) or self._compile_block(block)
        run = code.stepped or code.emit(self.module, hooked=True)
        try:
            return run(self, frame, self.step_hook, not skip_phis)
        except KeyError as exc:
            _undefined_read(exc)
            raise

    def _compile_block(self, block: BasicBlock) -> _BlockCode:
        code = self._code[block] = _BlockCode(block, self.cost_model.cost)
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

    def value_types(self, func: Function) -> dict[str, Type]:
        """Declared type of every value of ``func``, once per code cache.

        Kept on the entry block's code beside the counted loops, so the
        register injectors of every campaign over the module, and the
        recorder of its golden runs' site tables, share one table.
        """
        entry = self._code.get(func.entry) or self._compile_block(func.entry)
        if entry.types is None:
            entry.types = func.value_types()
        return entry.types


def _wrap_params(type_: Type) -> tuple[int, int, int]:
    """``(mask, signed_max, span)`` for inlined two's-complement wrapping."""
    bits = type_.bits
    return (1 << bits) - 1, (1 << (bits - 1)) - 1, 1 << bits


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

def _coerce(type_: Type, value: int | float) -> int | float:
    if type_.is_float:
        return float(value)
    if type_.is_pointer:
        return int(value)
    return type_.wrap(int(value))


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


# -- block code generation -------------------------------------------------------

_INT_SYMBOLS = {
    Opcode.ADD: "+", Opcode.SUB: "-", Opcode.MUL: "*",
    Opcode.AND: "&", Opcode.OR: "|", Opcode.XOR: "^",
}
_SHIFT_SYMBOLS = {Opcode.SHL: "<<", Opcode.LSHR: ">>", Opcode.ASHR: ">>"}
_FLOAT_SYMBOLS = {Opcode.FADD: "+", Opcode.FSUB: "-", Opcode.FMUL: "*"}
_PREDICATE_SYMBOLS = {
    Predicate.EQ: "==", Predicate.NE: "!=", Predicate.LT: "<",
    Predicate.LE: "<=", Predicate.GT: ">", Predicate.GE: ">=",
}
_HANG = 'raise FuelExhausted(f"instruction budget of {fuel} exhausted")'


def _no_edge(phi: Instruction, prev: BasicBlock | None) -> None:
    """Raise the error of a phi with no operand for the edge taken."""
    if prev is None:
        raise InterpreterError(
            f"phi {phi.ref()} reached without a predecessor edge"
        )
    raise TrapError(
        f"phi {phi.ref()}: no incoming entry for edge from "
        f"^{prev.name} (control-flow corruption?)"
    )


def _undefined_read(exc: BaseException) -> None:
    """Trap on a ``KeyError`` a generated frame's own ``env`` read raised.

    ``exc`` was caught by the caller of a generated function; a
    ``KeyError`` from a deeper frame, a hook's, is left alone.
    """
    line = exc.__traceback__.tb_next
    if type(exc) is KeyError and line is not None and line.tb_next is None:
        raise TrapError(f"read of undefined value %{exc.args[0]}") from None


#: Globals of every generated function, besides the objects it binds.
_GLOBALS = {
    "_CONTINUE": _CONTINUE, "_Return": _Return, "_RETURN_NONE": _RETURN_NONE,
    "DetectionTrap": DetectionTrap, "FuelExhausted": FuelExhausted,
    "TrapError": TrapError, "_no_edge": _no_edge,
    "_float_arith": _float_arith, "_magnitude": magnitude,
    "_copysign": math.copysign, "_isfinite": math.isfinite,
}


class _Source:
    """The source of one generated block function, line by line.

    Each instruction's lines carry its charge (see :class:`_BlockCode`).
    In the batched variant every value the block defines lives in a
    local, with its Python type when the operation fixes it, so an
    ``int()`` or ``float()`` that could not change the value is left
    out; the stepped variant reads every operand from ``env``.
    """

    def __init__(self, hooked: bool) -> None:
        self.hooked = hooked
        self.lines: list[str] = []
        self.charges: list[tuple[int, int]] = [(0, 0)]  # lines count from 1
        self.charge = (0, 0)
        self.indent = 1
        self.names = dict(_GLOBALS)
        self._bound: dict[int, str] = {}
        #: IR value name -> (local, its Python type or None).
        self.locals: dict[str, tuple[str, type | None]] = {}
        self._vars = 0

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)
        self.charges.append(self.charge)

    def bind(self, obj: object) -> str:
        """A global of the generated function holding ``obj``."""
        name = self._bound.get(id(obj))
        if name is None:
            name = self._bound[id(obj)] = f"_g{len(self._bound)}"
            self.names[name] = obj
        return name

    def literal(self, value: int | float) -> str:
        if type(value) is int:
            return repr(value) if value >= 0 else f"({value})"
        if type(value) is float and 0.0 < value < math.inf:
            return repr(value)  # round-trips exactly
        return self.bind(value)

    def read(self, value: Value, kind: type | None = None) -> str:
        """An expression reading ``value``, as ``kind`` (int/float) if given."""
        if isinstance(value, Constant):
            expr, known = self.literal(value.value), type(value.value)
        elif isinstance(value, (Argument, Instruction)):
            expr, known = self.locals.get(value.name) or (
                f"env[{value.name!r}]", None
            )
        else:
            raise InterpreterError(f"unknown value kind {value!r}")
        if kind is None or kind is known:
            return expr
        return f"{kind.__name__}({expr})"

    def kind(self, value: Value) -> type | None:
        if isinstance(value, Constant):
            return type(value.value)
        local = self.locals.get(value.name)
        return None if local is None else local[1]

    def var(self) -> str:
        """A fresh local for the next value."""
        if self.hooked:
            return "v"
        self._vars += 1
        return f"v{self._vars}"

    def define(self, instr: Instruction, var: str, kind: type | None) -> None:
        if not self.hooked:
            self.locals[instr.name] = (var, kind)
        self.line(f"env[{instr.name!r}] = {var}")

    def wrap(self, var: str, expr: str, type_: Type) -> None:
        """``var = expr`` reduced to ``type_``'s two's-complement range."""
        mask, smax, span = _wrap_params(type_)
        self.line(f"{var} = ({expr}) & {mask}")
        self.line(f"if {var} > {smax}: {var} -= {span}")

    def count(self, cost: int) -> None:
        """Charge one instruction, then check the fuel (stepped only)."""
        self.line(f"interp.instructions += 1; interp.cycles += {cost}")
        self.line(f"if interp.instructions > fuel: {_HANG}")

    def phis(self, code: _BlockCode) -> None:
        """Read every phi's operand for the edge taken, then define them.

        One branch per predecessor; phi ``j`` reads into ``t<j>``.
        """
        phis = code.block.phis
        preds: list[BasicBlock] = []
        for phi in phis:
            for pred in phi.block_targets:
                if all(pred is not seen for seen in preds):
                    preds.append(pred)
        self.line("prev = frame.prev_block")
        for k, pred in enumerate(preds):
            self.line(f"{'elif' if k else 'if'} prev is {self.bind(pred)}:")
            self.indent += 1
            for j, phi in enumerate(phis):
                self.charge = (j, code.phi_prefix[j])
                # The first entry for the edge, as the reference looks up.
                value = next((
                    value for value, source
                    in zip(phi.operands, phi.block_targets) if source is pred
                ), None)
                if value is None:
                    self.line(f"_no_edge({self.bind(phi)}, prev)")
                    break
                self.line(f"t{j} = {self.read(value)}")
                if self.hooked:
                    self.count(code.costs[j])
            self.indent -= 1
            self.charge = (0, 0)
        if preds:
            self.line("else:")
            self.line(f"    _no_edge({self.bind(phis[0])}, prev)")
        else:
            self.line(f"_no_edge({self.bind(phis[0])}, prev)")
        for j, phi in enumerate(phis):
            self.define(phi, f"t{j}", None)

    def instruction(self, instr: Instruction, module: Module) -> None:
        """The lines of one body instruction; a terminator's return."""
        op, ops, type_ = instr.opcode, instr.operands, instr.type
        read, line = self.read, self.line
        block = instr.parent
        if op is Opcode.RET:
            line(f"return _Return({read(ops[0])})" if ops
                 else "return _RETURN_NONE")
        elif op is Opcode.TRAP:
            func = block.parent.name if block.parent else "?"
            message = f"protection trap in @{func}:^{block.name}"
            line(f"raise DetectionTrap({self.bind(message)})")
        elif op is Opcode.JMP:
            target = self.bind(instr.block_targets[0])
            line(f"frame.prev_block, frame.block = {self.bind(block)}, {target}")
            line("return _CONTINUE")
        elif op is Opcode.BR:
            then, other = map(self.bind, instr.block_targets)
            line(f"frame.prev_block, frame.block = {self.bind(block)}, "
                 f"{then} if {read(ops[0])} else {other}")
            line("return _CONTINUE")
        elif op in _INT_SYMBOLS:
            x, y, var = read(ops[0], int), read(ops[1], int), self.var()
            self.wrap(var, f"{x} {_INT_SYMBOLS[op]} {y}", type_)
            self.define(instr, var, int)
        elif op is Opcode.SDIV or op is Opcode.SREM:
            line(f"x = {read(ops[0], int)}")
            line(f"y = {read(ops[1], int)}")
            var = self.var()
            if op is Opcode.SDIV:  # truncating toward zero, like hardware
                line('if y == 0: raise TrapError("integer division by zero")')
                self.wrap(var, "int(x / y)", type_)
            else:
                line('if y == 0: raise TrapError("integer remainder by zero")')
                self.wrap(var, "x - int(x / y) * y", type_)
            self.define(instr, var, int)
        elif op in _SHIFT_SYMBOLS:
            x, y, var = read(ops[0], int), read(ops[1], int), self.var()
            bits = type_.bits
            if op is not Opcode.ASHR:
                x = f"({x} & {(1 << bits) - 1})"
            shift = f"({y} & {bits - 1 if bits > 1 else 0})"
            self.wrap(var, f"{x} {_SHIFT_SYMBOLS[op]} {shift}", type_)
            self.define(instr, var, int)
        elif op in _FLOAT_SYMBOLS:
            x, y, var = read(ops[0], float), read(ops[1], float), self.var()
            line(f"{var} = {x} {_FLOAT_SYMBOLS[op]} {y}")
            self.define(instr, var, float)
        elif op is Opcode.FDIV:
            line(f"x = {read(ops[0], float)}")
            line(f"y = {read(ops[1], float)}")
            var = self.var()
            line(f"{var} = x / y if y else _float_arith({self.bind(op)}, x, y)")
            self.define(instr, var, float)
        elif op is Opcode.ICMP or op is Opcode.FCMP:
            # NaN compares false but for ``ne``: the fcmp NaN rule.
            kind = int if op is Opcode.ICMP else float
            x, y, var = read(ops[0], kind), read(ops[1], kind), self.var()
            symbol = _PREDICATE_SYMBOLS[instr.predicate]
            line(f"{var} = 1 if {x} {symbol} {y} else 0")
            self.define(instr, var, int)
        elif op is Opcode.SITOFP:
            var = self.var()
            line(f"{var} = float({read(ops[0], int)})")
            self.define(instr, var, float)
        elif op is Opcode.FPTOSI:
            line(f"f = {read(ops[0], float)}")
            line('if not _isfinite(f): '
                 'raise TrapError(f"fptosi of non-finite value {f}")')
            var = self.var()
            self.wrap(var, "int(f)", type_)
            self.define(instr, var, int)
        elif op is Opcode.ZEXT or op is Opcode.TRUNC:
            x, var = read(ops[0], int), self.var()
            if op is Opcode.ZEXT:
                x = f"{x} & {(1 << ops[0].type.bits) - 1}"
            self.wrap(var, x, type_)
            self.define(instr, var, int)
        elif op is Opcode.ALLOC:
            var = self.var()
            line(f"{var} = interp.alloc_cells({read(ops[0], int)})")
            self.define(instr, var, int)
        elif op is Opcode.LOAD:
            line(f"a = {read(ops[0], int)}")
            if self.hooked:
                line("heap = interp.heap")
            line('if not 0 <= a < len(heap): '
                 'raise TrapError(f"load from invalid address {a}")')
            var = self.var()
            if type_.is_float:
                line(f"{var} = float(heap[a])")
                self.define(instr, var, float)
            else:
                self.wrap(var, "int(heap[a])", type_)
                self.define(instr, var, int)
        elif op is Opcode.STORE:
            # Address before value: this order fixes which trap fires.
            line(f"a = {read(ops[1], int)}")
            line(f"s = {read(ops[0])}")
            if self.hooked:
                line("heap = interp.heap")
            line('if not 0 <= a < len(heap): '
                 'raise TrapError(f"store to invalid address {a}")')
            line("heap[a] = s")
        elif op is Opcode.GEP:
            var = self.var()
            line(f"{var} = {read(ops[0], int)} + {read(ops[1], int)}")
            self.define(instr, var, int)
        elif op is Opcode.SELECT:
            # The condition first, then only the chosen arm.
            cond, x, y = ops
            var = self.var()
            line(f"{var} = {read(x)} if {read(cond)} else {read(y)}")
            kind = self.kind(x)
            self.define(instr, var, kind if kind is self.kind(y) else None)
        elif op is Opcode.MAG:
            var = self.var()
            line(f"{var} = _magnitude({read(ops[0], float)}, {instr.imm or 0})")
            self.define(instr, var, int)
        elif op is Opcode.SIGN:
            var = self.var()
            line(f"{var} = 1 if _copysign(1.0, {read(ops[0], float)}) < 0 "
                 "else 0")
            self.define(instr, var, int)
        elif op is Opcode.CALL:
            callee = self.bind(module.function(instr.callee))
            call = f"interp._call({callee}, [{', '.join(map(read, ops))}])"
            if instr.defines_value:
                var = self.var()
                line(f"{var} = {call}")
                line(f"if {var} is None: {var} = 0")
                self.define(instr, var, None)
            else:
                line(call)
        else:  # pragma: no cover
            raise InterpreterError(f"unhandled opcode {op}")

