"""Checkpoint manager, CRC verification, and interpreter resume tests."""

import pytest

from repro.errors import CheckpointError
from repro.ir.interp import Interpreter
from repro.machine.asm import assemble
from repro.machine.cpu import Machine
from repro.recover.checkpoint import (
    CheckpointHook,
    CheckpointManager,
    checkpoint_machine,
    restore_machine_checkpoint,
    resume_from_checkpoint,
)
from repro.workloads.irprograms import PROGRAMS, build_program


class TestCheckpointManager:
    def test_store_and_latest_good(self):
        mgr = CheckpointManager(capacity=3)
        for i in range(3):
            mgr.store(("state", i), instructions=i * 10, cycles=i * 20,
                      substrate="interp")
        ckpt = mgr.latest_good()
        assert ckpt is not None
        assert ckpt.state() == ("state", 2)
        assert ckpt.intact

    def test_ring_evicts_oldest(self):
        mgr = CheckpointManager(capacity=2)
        for i in range(5):
            mgr.store((i,), instructions=i, cycles=i, substrate="interp")
        assert len(mgr) == 2
        assert mgr.taken == 5
        states = {mgr.latest_good(skip=k).state()[0] for k in range(2)}
        assert states == {3, 4}

    def test_crc_detects_bit_flip(self):
        mgr = CheckpointManager(capacity=2)
        mgr.store(("old",), instructions=1, cycles=1, substrate="interp")
        mgr.store(("new",), instructions=2, cycles=2, substrate="interp")
        mgr.flip_payload_bit(1, bit=13)  # corrupt the newest
        ckpt = mgr.latest_good()
        assert ckpt.state() == ("old",)  # fell back past the corruption
        assert mgr.corrupt_detected == 1

    def test_all_corrupt_returns_none(self):
        mgr = CheckpointManager(capacity=1)
        mgr.store(("x",), instructions=1, cycles=1, substrate="interp")
        mgr.flip_payload_bit(0, bit=0)
        assert mgr.latest_good() is None

    def test_skip_reaches_older_checkpoints(self):
        mgr = CheckpointManager(capacity=3)
        for i in range(3):
            mgr.store((i,), instructions=i, cycles=i, substrate="interp")
        assert mgr.latest_good(skip=0).state() == (2,)
        assert mgr.latest_good(skip=1).state() == (1,)
        assert mgr.latest_good(skip=3) is None

    def test_invalid_capacity_rejected(self):
        with pytest.raises(CheckpointError):
            CheckpointManager(capacity=0)


class TestInterpreterCheckpointing:
    @pytest.mark.parametrize("name", ["fact", "isort", "matmul", "kalman"])
    def test_resume_reproduces_straight_run(self, name):
        module = build_program(name)
        args = PROGRAMS[name].default_args
        mgr = CheckpointManager(capacity=8)
        interp = Interpreter(module, step_hook=CheckpointHook(mgr, 50))
        straight = interp.run(name, list(args))
        assert straight.ok
        assert mgr.taken > 0
        # Resuming from every retained checkpoint reproduces the value
        # AND the cycle count — the rollback path is cost-exact.
        for skip in range(len(mgr)):
            ckpt = mgr.latest_good(skip=skip)
            resumed = resume_from_checkpoint(module, ckpt)
            assert resumed.ok
            assert resumed.value == straight.value
            assert resumed.cycles == straight.cycles
            assert resumed.instructions == straight.instructions

    def test_corrupt_checkpoint_refused(self):
        module = build_program("fact")
        mgr = CheckpointManager(capacity=4)
        interp = Interpreter(module, step_hook=CheckpointHook(mgr, 20))
        interp.run("fact", list(PROGRAMS["fact"].default_args))
        mgr.flip_payload_bit(0, bit=7)
        bad = mgr._ring[0]
        assert not bad.intact
        with pytest.raises(CheckpointError):
            resume_from_checkpoint(module, bad)

    @pytest.mark.parametrize("name", ["isort", "orbit", "dot"])
    def test_batched_run_stores_the_checkpoints_of_a_per_step_run(
        self, name, monkeypatch
    ):
        # Blocks that end before the hook's next_index run batched; a
        # hook consulted at every index must store the same checkpoints.
        module = build_program(name)
        args = list(PROGRAMS[name].default_args)
        batched = []
        run_batched = Interpreter._run_batched

        def counting(self, frame, code):
            batched.append(frame.block)
            return run_batched(self, frame, code)

        monkeypatch.setattr(Interpreter, "_run_batched", counting)
        managers = [CheckpointManager(capacity=1_000) for _ in range(2)]
        every_step = CheckpointHook(managers[1])
        runs = [
            Interpreter(module, step_hook=CheckpointHook(managers[0])),
            Interpreter(module, step_hook=lambda *a: every_step(*a)),
        ]
        results = [interp.run(name, args) for interp in runs]
        assert results[0] == results[1] and results[0].ok
        stored = [
            [(c.payload, c.crc, c.instructions, c.cycles) for c in m._ring]
            for m in managers
        ]
        assert stored[0] and stored[0] == stored[1]
        assert managers[0].taken == len(stored[0])
        assert batched

    def test_wrong_substrate_refused(self):
        mgr = CheckpointManager()
        ckpt = mgr.store(("m",), instructions=0, cycles=0,
                         substrate="machine")
        with pytest.raises(CheckpointError):
            resume_from_checkpoint(build_program("fact"), ckpt)


def _assemble_sum():
    source = """
        li   r1, 0
        li   r2, 1
        li   r3, 101
    loop:
        add  r1, r1, r2
        addi r2, r2, 1
        blt  r2, r3, loop
        halt
    """
    return assemble(source)


class TestMachineCheckpointing:
    def test_machine_checkpoint_roundtrip(self):
        machine = Machine(_assemble_sum())
        for _ in range(20):
            machine.step()
        mgr = CheckpointManager(capacity=2)
        checkpoint_machine(machine, mgr)
        mid_pc = machine.state.pc
        mid_regs = list(machine.state.registers)
        machine.run()
        assert machine.state.halted
        final = machine.read_register(1)
        restore_machine_checkpoint(machine, mgr.latest_good())
        assert machine.state.pc == mid_pc
        assert machine.state.registers == mid_regs
        assert not machine.state.halted
        machine.run()
        assert machine.read_register(1) == final  # replay converges

    def test_corrupt_machine_checkpoint_refused(self):
        machine = Machine(_assemble_sum())
        mgr = CheckpointManager(capacity=1)
        checkpoint_machine(machine, mgr)
        mgr.flip_payload_bit(0, bit=42)
        with pytest.raises(CheckpointError):
            restore_machine_checkpoint(machine, mgr._ring[0])
