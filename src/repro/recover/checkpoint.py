"""Checksum-verified checkpointing for both execution substrates.

Checkpoints live in the same radiation environment as the state they
protect: an SEU can flip a bit of a stored checkpoint just as easily as a
bit of a live register.  Every checkpoint therefore stores a canonical
byte serialization of the captured state together with its CRC-32, and
:meth:`CheckpointManager.latest_good` re-verifies the checksum before a
restore is allowed — a corrupted checkpoint is skipped, not restored
(restoring corrupt state would convert a detected failure into silent
data corruption).

Two substrates are supported:

- the machine emulator, via :func:`checkpoint_machine` /
  :func:`restore_machine_checkpoint` on top of
  :mod:`repro.machine.snapshot`;
- the IR interpreter, via :class:`CheckpointHook` (a ``step_hook`` that
  captures single-frame state at block-body boundaries) and
  :func:`resume_from_checkpoint`, which re-enters execution through
  :meth:`repro.ir.interp.Interpreter.resume`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.ecc.crc import crc32
from repro.errors import CheckpointError
from repro.ir.costmodel import CORTEX_A53, CostModel
from repro.ir.instructions import Instruction
from repro.ir.interp import ExecutionResult, Frame, Interpreter
from repro.ir.module import Module
from repro.machine.cpu import Machine
from repro.machine.snapshot import restore_snapshot, take_snapshot
from repro.obs.events import CheckpointTaken, Tracer


@dataclass(frozen=True)
class Checkpoint:
    """One stored checkpoint: serialized state plus its checksum.

    Attributes:
        payload: canonical byte serialization of the captured state.
        crc: CRC-32 of ``payload`` computed at capture time.
        instructions: dynamic instruction count at capture.
        cycles: cycle count at capture.
        substrate: "interp" or "machine".
    """

    payload: bytes
    crc: int
    instructions: int
    cycles: int
    substrate: str

    @property
    def intact(self) -> bool:
        """True when the payload still matches its capture-time CRC."""
        return crc32(self.payload) == self.crc

    def state(self) -> tuple:
        """Deserialize the payload (verify with :attr:`intact` first)."""
        try:
            return ast.literal_eval(self.payload.decode("utf-8"))
        except (ValueError, SyntaxError, UnicodeDecodeError) as exc:
            raise CheckpointError(
                f"checkpoint payload is unparseable: {exc}"
            ) from exc


def _serialize(state: tuple) -> bytes:
    """Canonical byte form: the repr of a literal-safe tuple."""
    return repr(state).encode("utf-8")


class CheckpointManager:
    """Ring buffer of the last ``capacity`` checkpoints.

    Attributes:
        taken: checkpoints captured over the manager's lifetime.
        corrupt_detected: checkpoints the CRC rejected during lookup.
    """

    def __init__(self, capacity: int = 4) -> None:
        if capacity < 1:
            raise CheckpointError(
                f"checkpoint capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self._ring: list[Checkpoint] = []
        self.taken = 0
        self.corrupt_detected = 0

    def __len__(self) -> int:
        return len(self._ring)

    def store(
        self, state: tuple, instructions: int, cycles: int, substrate: str
    ) -> Checkpoint:
        """Serialize and retain ``state``, evicting the oldest if full."""
        payload = _serialize(state)
        ckpt = Checkpoint(
            payload=payload,
            crc=crc32(payload),
            instructions=instructions,
            cycles=cycles,
            substrate=substrate,
        )
        self._ring.append(ckpt)
        if len(self._ring) > self.capacity:
            self._ring.pop(0)
        self.taken += 1
        return ckpt

    def latest_good(self, skip: int = 0) -> Checkpoint | None:
        """Newest CRC-intact checkpoint, optionally skipping ``skip``.

        ``skip`` counts *intact* checkpoints: the escalation ladder's
        second rollback attempt passes ``skip=1`` to reach further into
        the past when resuming from the newest checkpoint reproduced the
        failure (its state postdates the fault).
        """
        good = 0
        for ckpt in reversed(self._ring):
            if not ckpt.intact:
                self.corrupt_detected += 1
                continue
            if good == skip:
                return ckpt
            good += 1
        return None

    def flip_payload_bit(self, index: int, bit: int) -> None:
        """Corrupt a stored checkpoint in place (an SEU hit storage).

        ``index`` addresses the ring oldest-first; ``bit`` is a bit
        offset into the payload.
        """
        ckpt = self._ring[index]
        data = bytearray(ckpt.payload)
        data[(bit // 8) % len(data)] ^= 1 << (bit % 8)
        self._ring[index] = Checkpoint(
            payload=bytes(data),
            crc=ckpt.crc,
            instructions=ckpt.instructions,
            cycles=ckpt.cycles,
            substrate=ckpt.substrate,
        )

    def clear(self) -> None:
        self._ring.clear()


# -- machine substrate ---------------------------------------------------------


def checkpoint_machine(
    machine: Machine, manager: CheckpointManager
) -> Checkpoint:
    """Capture the machine's architectural state into ``manager``."""
    snap = take_snapshot(machine)
    state = (
        snap.registers, snap.pc, snap.memory, snap.halted,
        snap.steps, snap.cycles,
    )
    return manager.store(
        state, instructions=snap.steps, cycles=snap.cycles,
        substrate="machine",
    )


def restore_machine_checkpoint(machine: Machine, ckpt: Checkpoint) -> None:
    """Verify and restore a machine checkpoint (cache is flushed)."""
    if ckpt.substrate != "machine":
        raise CheckpointError(
            f"cannot restore a {ckpt.substrate!r} checkpoint into a machine"
        )
    if not ckpt.intact:
        raise CheckpointError("refusing to restore a corrupt checkpoint")
    registers, pc, memory, halted, steps, cycles = ckpt.state()
    from repro.machine.snapshot import Snapshot

    restore_snapshot(machine, Snapshot(
        registers=tuple(registers),
        pc=pc,
        memory=tuple(memory),
        halted=halted,
        steps=steps,
        cycles=cycles,
    ))


# -- interpreter substrate -----------------------------------------------------


class CheckpointHook:
    """Step hook that checkpoints interpreter state every ``interval``.

    Captures fire only at *safe points*: the first body instruction of a
    block in a single-frame execution, where the block's phis have already
    been applied to the environment.  :func:`resume_from_checkpoint` can
    re-enter execution exactly there, skipping the already-applied phis.
    """

    def __init__(
        self,
        manager: CheckpointManager,
        interval: int = 200,
        tracer: Tracer | None = None,
        trial_index: int = 0,
    ) -> None:
        if interval < 1:
            raise CheckpointError(
                f"checkpoint interval must be >= 1, got {interval}"
            )
        self.manager = manager
        self.interval = interval
        self.tracer = tracer
        self.trial_index = trial_index
        #: the step-hook contract: no capture is due below this index.
        self.next_index = interval

    def __call__(
        self,
        interp: Interpreter,
        frame: Frame,
        instr: Instruction,
        dynamic_index: int,
    ) -> None:
        if dynamic_index < self.next_index:
            return
        if len(interp.frames) != 1:
            return  # only top-frame state is resumable; wait for a return
        body = frame.block.body
        if not body or instr is not body[0]:
            return  # mid-block; wait for the next block boundary
        state = (
            frame.func.name,
            frame.block.name,
            tuple(sorted(frame.env.items())),
            tuple(interp.heap),
        )
        self.manager.store(
            state,
            instructions=interp.instructions,
            cycles=interp.cycles,
            substrate="interp",
        )
        self.next_index = dynamic_index + self.interval
        if self.tracer is not None:
            self.tracer.emit(CheckpointTaken(
                trial=self.trial_index,
                instructions=interp.instructions,
                cycles=interp.cycles,
                taken=self.manager.taken,
            ))


def resume_from_checkpoint(
    module: Module,
    ckpt: Checkpoint,
    cost_model: CostModel = CORTEX_A53,
    fuel: int = 5_000_000,
    step_hook=None,
    code_cache: dict | None = None,
) -> ExecutionResult:
    """Verify an interpreter checkpoint and resume execution from it."""
    if ckpt.substrate != "interp":
        raise CheckpointError(
            f"cannot resume a {ckpt.substrate!r} checkpoint in the interpreter"
        )
    if not ckpt.intact:
        raise CheckpointError("refusing to resume a corrupt checkpoint")
    func_name, block_name, env_items, heap = ckpt.state()
    interp = Interpreter(
        module, cost_model=cost_model, fuel=fuel, step_hook=step_hook,
        code_cache=code_cache
    )
    return interp.resume(
        func_name,
        block_name,
        env=dict(env_items),
        heap=list(heap),
        cycles=ckpt.cycles,
        instructions=ckpt.instructions,
    )
