"""SEU injectors for the IR interpreter.

Each injector is a ``step_hook`` (see :class:`repro.ir.interp.Interpreter`)
that fires once, at a chosen dynamic instruction index, and flips one bit of
live architectural state — a register (live SSA value of the executing
frame) or a heap cell.  This mirrors the paper's QEMU framework, which
"pauses the execution of the system emulation at a selected time, and uses
GDB to modify register and memory contents" (sect. 4.2): an injector's
``next_index`` is its drawn index until it fires, then None.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FaultInjectionError
from repro.faults.model import FaultSpec, FaultTarget, flip_value_bit, flip_int_bit
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.interp import Frame, Interpreter
from repro.ir.types import F64, INT64, Type, injectable_width
from repro.rng import TrialStream, make_rng


#: Declared type of every named value (arguments + instruction results).
_value_types = Function.value_types

#: What an injector draws from: a seed, a numpy Generator or a trial stream.
Seed = int | np.random.Generator | TrialStream | None


def _draw_rng(
    spec: FaultSpec, seed: Seed
) -> np.random.Generator | TrialStream | None:
    """The generator an injector draws its site and bit from, or None when
    ``spec`` fixes both, so that nothing is drawn (the executed trials of
    a pruned campaign) and no generator is built."""
    if spec.location is not None and spec.bit is not None:
        return None
    return make_rng(seed)


def draw_register_fault(
    env: dict[str, int | float],
    types: dict[str, Type],
    rng: np.random.Generator | TrialStream | None,
    location: str | None = None,
    bit: int | None = None,
) -> tuple[str, Type, int]:
    """Resolve one register fault against the live ``env``: (name, type, bit).

    Unless given, the site is drawn uniformly from the sorted live names,
    then the bit from the site's injectable width.  A site without a
    declared type is typed by its runtime value (F64 or INT64).  The
    injector and the pruned-campaign planner both draw through here, so
    a planned trial consumes ``rng`` exactly like the trial it stands for.
    Every draw is ``rng.integers``, so ``rng`` may be a numpy Generator or
    a :class:`~repro.rng.TrialStream`; with both fields given it may be
    None.
    """
    if location is None:
        names = sorted(env)
        location = names[int(rng.integers(len(names)))]
    type_ = types.get(location)
    if type_ is None:
        type_ = F64 if isinstance(env[location], float) else INT64
    if bit is None:
        bit = int(rng.integers(injectable_width(type_)))
    return location, type_, bit


class RegisterFaultInjector:
    """Flips one bit in one live register at one dynamic instruction.

    Attributes:
        spec: the fault request; unresolved fields (location/bit) are chosen
            uniformly at injection time and recorded in :attr:`resolved`.
        rng: what those fields are drawn from: ``make_rng(seed)``, so a
            numpy Generator or the trial's :class:`~repro.rng.TrialStream`;
            None when ``spec`` fixes both and nothing is drawn.
        resolved: the fully determined fault actually injected (None until
            injection happens).
    """

    def __init__(
        self,
        spec: FaultSpec,
        seed: Seed = None,
    ) -> None:
        if spec.target is not FaultTarget.REGISTER:
            raise FaultInjectionError(
                f"RegisterFaultInjector got target {spec.target}"
            )
        self.spec = spec
        self.rng = _draw_rng(spec, seed)
        self.resolved: FaultSpec | None = None
        self.next_index: int | None = spec.dynamic_index

    def __call__(
        self,
        interp: Interpreter,
        frame: Frame,
        instr: Instruction,
        dynamic_index: int,
    ) -> None:
        if self.resolved is not None or dynamic_index < self.spec.dynamic_index:
            return
        env = frame.env
        if not env:
            return  # nothing live yet; fires at the next opportunity
        location = self.spec.location
        if location is not None:
            location = str(location)
            if location not in env:
                return  # requested register not live yet; wait
        name, type_, bit = draw_register_fault(
            env, interp.value_types(frame.func), self.rng, location,
            self.spec.bit,
        )
        env[name] = flip_value_bit(env[name], type_, bit)
        self.resolved = FaultSpec(
            target=FaultTarget.REGISTER,
            dynamic_index=dynamic_index,
            location=name,
            bit=bit,
        )
        self.next_index = None

    @property
    def fired(self) -> bool:
        return self.resolved is not None


class HeapFaultInjector:
    """Flips one bit in one heap cell at one dynamic instruction.

    Heap cells are typeless 8-byte slots; the flip respects the runtime kind
    of the stored value (float vs integer).  Address and bit are drawn
    like :class:`RegisterFaultInjector`'s site and bit, through ``integers``
    only, and not at all when ``spec`` fixes both.
    """

    def __init__(
        self,
        spec: FaultSpec,
        seed: Seed = None,
    ) -> None:
        if spec.target is not FaultTarget.MEMORY:
            raise FaultInjectionError(
                f"HeapFaultInjector got target {spec.target}"
            )
        self.spec = spec
        self.rng = _draw_rng(spec, seed)
        self.resolved: FaultSpec | None = None
        self.next_index: int | None = spec.dynamic_index

    def __call__(
        self,
        interp: Interpreter,
        frame: Frame,
        instr: Instruction,
        dynamic_index: int,
    ) -> None:
        if self.resolved is not None or dynamic_index < self.spec.dynamic_index:
            return
        if not interp.heap:
            return
        if self.spec.location is not None:
            address = int(self.spec.location)
            if not 0 <= address < len(interp.heap):
                raise FaultInjectionError(
                    f"heap address {address} outside heap of "
                    f"{len(interp.heap)} cells"
                )
        else:
            address = int(self.rng.integers(len(interp.heap)))
        cell = interp.heap[address]
        if isinstance(cell, float):
            bit = (
                self.spec.bit if self.spec.bit is not None
                else int(self.rng.integers(64))
            )
            interp.heap[address] = flip_value_bit(cell, F64, bit)
        else:
            bit = (
                self.spec.bit if self.spec.bit is not None
                else int(self.rng.integers(64))
            )
            interp.heap[address] = flip_int_bit(int(cell), bit, 64)
        self.resolved = FaultSpec(
            target=FaultTarget.MEMORY,
            dynamic_index=dynamic_index,
            location=address,
            bit=bit,
        )
        self.next_index = None

    @property
    def fired(self) -> bool:
        return self.resolved is not None
