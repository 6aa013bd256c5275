"""SEU injectors for the IR interpreter.

Each injector is a ``step_hook`` (see :class:`repro.ir.interp.Interpreter`)
that fires once, at a chosen dynamic instruction index, and flips one bit of
live architectural state — a register (live SSA value of the executing
frame) or a heap cell.  This mirrors the paper's QEMU framework, which
"pauses the execution of the system emulation at a selected time, and uses
GDB to modify register and memory contents" (sect. 4.2): an injector's
``next_index`` is its drawn index until it fires, then None.

Where a register fault fires, and among what, is a property of the
fault-free run: :class:`SiteTable` records it once from golden's run, so
a pruned campaign resolves every trial by lookup, drawing exactly what
the injector would.
"""

from __future__ import annotations

from array import array
from itertools import repeat

import numpy as np

from repro.errors import FaultInjectionError
from repro.faults.model import FaultSpec, FaultTarget, flip_value_bit, flip_int_bit
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.interp import Frame, Interpreter
from repro.ir.module import Module
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


def site_type(
    env: dict[str, int | float], types: dict[str, Type], name: str
) -> Type:
    """The type a flip of live register ``name`` follows: its declared
    type, else F64 or INT64 by its runtime value."""
    type_ = types.get(name)
    if type_ is None:
        type_ = F64 if isinstance(env[name], float) else INT64
    return type_


def draw_register_fault(
    env: dict[str, int | float],
    types: dict[str, Type],
    rng: np.random.Generator | TrialStream | None,
    location: str | None = None,
    bit: int | None = None,
) -> tuple[str, Type, int]:
    """Resolve one register fault against the live ``env``: (name, type, bit).

    Unless given, the site is drawn uniformly from the sorted live names,
    then the bit from the site's injectable width (:func:`site_type`).
    :class:`RegisterFaultInjector` draws through here;
    :meth:`SiteTable.fault` makes the same two draws from golden's
    recorded names and widths.  Every draw is ``rng.integers``, so
    ``rng`` may be a numpy Generator or a
    :class:`~repro.rng.TrialStream`; with both fields given it may be
    None.
    """
    if location is None:
        names = sorted(env)
        location = names[int(rng.integers(len(names)))]
    type_ = site_type(env, types, location)
    if bit is None:
        bit = int(rng.integers(injectable_width(type_)))
    return location, type_, bit


class SiteTable:
    """Where a register fault drawn at each dynamic index of one golden
    run fires, and which sites and bits it draws among there.

    A :class:`RegisterFaultInjector` requested at dynamic index ``d``
    fires at the first body instruction at or after ``d`` whose frame
    env is non-empty: that instruction is ``d``'s firing point.  Before
    the fault the trial is golden, so the firing point and its env are
    golden's, and the table holds them for every ``d`` of the run:

    * ``fire[d]`` numbers ``d``'s firing point, -1 when there is none (a
      fault requested there never fires);
    * firing point ``k`` is at dynamic index ``index[k]``, at
      ``points[point[k]]`` — (function, block, index into ``block.body``)
      — and its env is ``envs[env[k]]``: the sorted names and each
      name's injectable width.

    The four are flat integer arrays.  Envs are interned: a frame's
    names change only when it defines a new one.  Recorded by
    :class:`SiteRecorder`; see :meth:`fault` for the lookup.
    """

    __slots__ = ("fire", "index", "point", "env", "points", "envs")

    def __init__(self) -> None:
        self.fire = array("q")
        self.index = array("q")
        self.point = array("q")
        self.env = array("q")
        self.points: list[tuple[str, str, int]] = []
        self.envs: list[tuple[tuple[str, ...], tuple[int, ...]]] = []

    def fault(
        self, index: int, rng: np.random.Generator | TrialStream
    ) -> tuple[FaultSpec, tuple[str, str, int]] | None:
        """The fault requested at ``index`` and its firing point, or None
        when it never fires.

        Draws the site, then the bit, from ``rng`` as
        :func:`draw_register_fault` would at the firing point, so ``rng``
        ends where the injector leaves it; nothing is drawn when the
        fault never fires.
        """
        k = self.fire[index]
        if k < 0:
            return None
        names, widths = self.envs[self.env[k]]
        site = int(rng.integers(len(names)))
        bit = int(rng.integers(widths[site]))
        spec = FaultSpec(FaultTarget.REGISTER, self.index[k], names[site], bit)
        return spec, self.points[self.point[k]]


class SiteRecorder:
    """Step hook that records the :class:`SiteTable` of the run it watches.

    It acts at every index (``next_index`` 0), so every block runs per
    step and the hook sees every body instruction: each one whose frame
    env is non-empty is a firing point.  Every name in a golden frame is
    declared (an argument or an instruction's result), so a frame's
    widths change only when its env gains a name, and the env is
    interned again only then.  :meth:`finish` closes the table.
    """

    def __init__(self, module: Module) -> None:
        self.next_index = 0
        self.table = SiteTable()
        #: ``id`` of each body instruction -> its number in ``points``.
        self._numbers: dict[int, int] = {}
        for func in module:
            for block in func.blocks:
                for body_index, instr in enumerate(block.body):
                    self._numbers[id(instr)] = len(self.table.points)
                    self.table.points.append(
                        (func.name, block.name, body_index)
                    )
        self._interned: dict[tuple, int] = {}
        self._frame: Frame | None = None
        self._size = 0
        self._env = -1

    def __call__(
        self,
        interp: Interpreter,
        frame: Frame,
        instr: Instruction,
        dynamic_index: int,
    ) -> None:
        env = frame.env
        if not env:
            return  # an injector would wait here: no firing point
        if frame is not self._frame or len(env) != self._size:
            self._frame, self._size = frame, len(env)
            self._env = self._intern(env, interp.value_types(frame.func))
        table = self.table
        table.index.append(dynamic_index)
        table.point.append(self._numbers[id(instr)])
        table.env.append(self._env)

    def _intern(
        self, env: dict[str, int | float], types: dict[str, Type]
    ) -> int:
        names = tuple(sorted(env))
        key = (names, tuple(
            injectable_width(site_type(env, types, name)) for name in names
        ))
        number = self._interned.get(key)
        if number is None:
            number = self._interned[key] = len(self.table.envs)
            self.table.envs.append(key)
        return number

    def finish(self, instructions: int) -> SiteTable:
        """The table of the watched run, ``instructions`` long."""
        table = self.table
        start = 0
        for k, at in enumerate(table.index):
            table.fire.extend(repeat(k, at + 1 - start))
            start = at + 1
        table.fire.extend(repeat(-1, instructions - start))
        return table


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
