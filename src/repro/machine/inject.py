"""Fault-injection campaigns on the machine emulator (experiment E9).

Faults are injected between instructions, QEMU-style: pause at a random
dynamic step, flip one bit of a register or a data word, resume, classify.
The cache plugin classifies memory faults as cache-resident or DRAM at
injection time — the paper's monitor-interface extension.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import FaultInjectionError
from repro.faults.model import FaultTarget
from repro.faults.outcomes import FaultOutcome, OutcomeCounts
from repro.machine.asm import Program
from repro.machine.cache import CachePlugin
from repro.machine.cpu import Machine, RunOutcome
from repro.machine.gdbport import GdbPort
from repro.machine.isa import MachInstr, N_REGISTERS
from repro.machine.programs import RESULT_ADDR, load_program
from repro.rng import TrialStream, trial_rngs


@dataclass
class MachineCampaign:
    """Configuration for a machine-level campaign.

    Attributes:
        program_name: registered workload.
        n_trials: faults to inject.
        target: REGISTER, MEMORY (DRAM) or CACHE.
        fuel_factor: hang budget as a multiple of the golden step count.
    """

    program_name: str
    n_trials: int = 200
    target: FaultTarget = FaultTarget.REGISTER
    fuel_factor: int = 50


@dataclass
class MachineTrial:
    """One machine fault trial.

    Attributes:
        step: dynamic step of injection.
        location: register index or memory address.
        bit: flipped bit.
        outcome: classification vs the golden run.
        in_cache: for memory faults, whether the word was cache-resident.
    """

    step: int
    location: int
    bit: int
    outcome: FaultOutcome
    in_cache: bool | None = None


@dataclass
class MachineCampaignResult:
    """Aggregated machine campaign outcome."""

    program_name: str
    golden_result: int
    golden_steps: int
    counts: OutcomeCounts = field(default_factory=OutcomeCounts)
    trials: list[MachineTrial] = field(default_factory=list)


class _OneShotInjector:
    """Step hook flipping one bit at one dynamic step."""

    def __init__(
        self,
        target: FaultTarget,
        step: int,
        rng: TrialStream | np.random.Generator,
    ) -> None:
        self.target = target
        self.step = step
        self.rng = rng
        self.fired = False
        self.location = -1
        self.bit = -1
        self.in_cache: bool | None = None

    def __call__(self, machine: Machine, instr: MachInstr, step: int) -> None:
        if self.fired or step < self.step:
            return
        gdb = GdbPort(machine)
        if self.target is FaultTarget.REGISTER:
            self.location = int(self.rng.integers(N_REGISTERS))
            self.bit = int(self.rng.integers(64))
            gdb.flip_register_bit(self.location, self.bit)
            self.fired = True
            return
        # Memory-class fault: choose among words the program has touched
        # (plus its static data), then classify via the cache plugin.
        words = sorted(machine.state.memory)
        if not words:
            return
        cache = machine.cache
        if self.target is FaultTarget.CACHE:
            candidates = [
                a for a in words if cache is not None and cache.resident(a)
            ]
        else:
            candidates = [
                a for a in words if cache is None or not cache.resident(a)
            ]
        if not candidates:
            return  # wait for a step where the target class is non-empty
        self.location = int(candidates[int(self.rng.integers(len(candidates)))])
        self.bit = int(self.rng.integers(64))
        gdb.flip_memory_bit(self.location, self.bit)
        self.in_cache = cache.resident(self.location) if cache else None
        self.fired = True


def _golden(program: Program, fuel: int) -> tuple[int, int, int]:
    machine = Machine(program, cache=CachePlugin())
    outcome = machine.run(fuel=fuel)
    if outcome is not RunOutcome.HALTED:
        raise FaultInjectionError(
            f"golden machine run did not halt: {outcome.value} "
            f"({machine.trap_reason})"
        )
    return (
        machine.read_word(RESULT_ADDR),
        machine.state.steps,
        machine.state.cycles,
    )


def run_machine_campaign(
    campaign: MachineCampaign,
    seed: int | np.random.Generator | None = None,
) -> MachineCampaignResult:
    """Run a machine-level fault-injection campaign.

    Trial *k* draws its step, site and bit from child *k* of ``seed``
    (:func:`repro.rng.trial_rngs`), as the IR engine's trials do.
    """
    program = load_program(campaign.program_name)
    golden_value, golden_steps, _ = _golden(program, fuel=5_000_000)
    result = MachineCampaignResult(
        program_name=campaign.program_name,
        golden_result=golden_value,
        golden_steps=golden_steps,
    )
    fuel = golden_steps * campaign.fuel_factor + 1_000

    for trial_rng in trial_rngs(seed, campaign.n_trials):
        step = int(trial_rng.integers(golden_steps))
        injector = _OneShotInjector(campaign.target, step, trial_rng)
        machine = Machine(
            load_program(campaign.program_name),
            cache=CachePlugin(),
            step_hook=injector,
        )
        outcome = machine.run(fuel=fuel)
        if not injector.fired:
            fault_outcome = FaultOutcome.BENIGN
        elif outcome is RunOutcome.TRAP:
            fault_outcome = FaultOutcome.CRASH
        elif outcome is RunOutcome.FUEL_EXHAUSTED:
            fault_outcome = FaultOutcome.HANG
        elif machine.read_word(RESULT_ADDR) == golden_value:
            fault_outcome = FaultOutcome.BENIGN
        else:
            fault_outcome = FaultOutcome.SDC
        result.counts.record(fault_outcome)
        result.trials.append(
            MachineTrial(
                step=step,
                location=injector.location,
                bit=injector.bit,
                outcome=fault_outcome,
                in_cache=injector.in_cache,
            )
        )
    return result
