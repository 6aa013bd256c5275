"""Property-based differential testing of every execution tier.

Hypothesis generates random programs and random SEUs, then routes each
case through every execution tier:

1. :class:`repro.ir.refinterp.ReferenceInterpreter` — the oracle;
2. the fast path per step (the hook wrapped in a plain callable, which
   has no ``next_index`` and so is consulted at every index);
3. batched blocks (the hook's own ``next_index`` lets blocks that end
   before it batch);
4. golden snapshots (the SEU run starts at the latest golden snapshot
   at or before the hook's ``next_index`` and stops where it rejoins
   golden).

All tiers must agree exactly on outcome (status, value, trap reason),
fuel (dynamic instruction and cycle counts) and live register state —
the environment snapshot probed at a random dynamic index.  A hook that
acts at many indices (as the pruning planner and checkpoints do) must
see the same points and states on every tier.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.faults.model import FaultSpec, FaultTarget, flip_value_bit
from repro.faults.seu import (
    RegisterFaultInjector, _value_types, draw_register_fault,
)
from repro.ir.interp import GoldenSnapshots, Interpreter
from repro.ir.refinterp import ReferenceInterpreter
from repro.rng import make_rng

from tests.ir.test_fuzz_pipeline import PROGRAMS


def _every_step(hook):
    """``hook`` as a plain callable: no ``next_index``, every index."""
    return lambda interp, frame, instr, index: hook(
        interp, frame, instr, index
    )


class _EnvProbe:
    """Step hook that snapshots live registers at one dynamic index."""

    def __init__(self, index: int) -> None:
        self.next_index: int | None = index
        self.env: dict | None = None

    def __call__(self, interp, frame, instr, dynamic_index) -> None:
        if self.next_index is not None and dynamic_index >= self.next_index:
            self.env = dict(frame.env)
            self.next_index = None


class _ManyActs:
    """Step hook that acts at every index of a sorted set.

    Each action logs the index, function, block, body position and env;
    the actions marked in ``flips`` also flip a random live bit.  After
    an action ``next_index`` is the next index of the set past it, None
    after the last.
    """

    def __init__(self, indices: list[int], flips: list[bool], seed: int):
        self.indices, self.flips = indices, flips
        self.rng = make_rng(seed)
        self.log: list[tuple] = []
        self._k = 0
        self.next_index: int | None = indices[0]

    def __call__(self, interp, frame, instr, dynamic_index) -> None:
        if self.next_index is None or dynamic_index < self.next_index:
            return
        env = frame.env
        position = next(
            i for i, body in enumerate(frame.block.body) if body is instr
        )
        self.log.append((
            dynamic_index, frame.func.name, frame.block.name, position,
            repr(sorted(env.items())),
        ))
        if self.flips[self._k] and env:
            name, type_, bit = draw_register_fault(
                env, _value_types(frame.func), self.rng
            )
            env[name] = flip_value_bit(env[name], type_, bit)
        while self._k < len(self.indices) and (
            self.indices[self._k] <= dynamic_index
        ):
            self._k += 1
        self.next_index = (
            self.indices[self._k] if self._k < len(self.indices) else None
        )


def _values_equal(a, b):
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return True
    return a == b


def _assert_same_execution(result, oracle):
    assert result.status == oracle.status
    assert _values_equal(result.value, oracle.value)
    assert result.instructions == oracle.instructions
    assert result.cycles == oracle.cycles
    assert result.trap_reason == oracle.trap_reason


@settings(max_examples=25, deadline=None)
@given(PROGRAMS, st.integers(0, 2**32 - 1))
def test_random_seu_agrees_across_all_tiers(case, seed):
    module, args = case
    golden = ReferenceInterpreter(module).run("f", args)
    index = int(make_rng(seed).integers(max(1, golden.instructions)))
    fuel = golden.instructions * 50 + 2_000

    def injector():
        spec = FaultSpec(target=FaultTarget.REGISTER, dynamic_index=index)
        return RegisterFaultInjector(spec, seed=make_rng(seed))

    oracle = ReferenceInterpreter(
        module, fuel=fuel, step_hook=injector()
    ).run("f", args)
    fast = Interpreter(
        module, fuel=fuel, step_hook=_every_step(injector())
    ).run("f", args)
    batched = Interpreter(
        module, fuel=fuel, step_hook=injector()
    ).run("f", args)
    table = GoldenSnapshots()
    Interpreter(module, snapshots=table).run("f", args)
    from_snapshots = Interpreter(
        module, fuel=fuel, step_hook=injector(),
        snapshots=table,
    ).run("f", args)

    _assert_same_execution(fast, oracle)
    _assert_same_execution(batched, oracle)
    _assert_same_execution(from_snapshots, oracle)


@settings(max_examples=25, deadline=None)
@given(PROGRAMS, st.integers(0, 2**32 - 1))
def test_register_state_agrees_at_random_probe_point(case, seed):
    module, args = case
    golden = ReferenceInterpreter(module).run("f", args)
    index = int(make_rng(seed).integers(max(1, golden.instructions)))

    probes = [_EnvProbe(index) for _ in range(3)]
    oracle = ReferenceInterpreter(module, step_hook=probes[0]).run("f", args)
    fast = Interpreter(
        module, step_hook=_every_step(probes[1])
    ).run("f", args)
    batched = Interpreter(module, step_hook=probes[2]).run("f", args)

    _assert_same_execution(fast, oracle)
    _assert_same_execution(batched, oracle)
    assert probes[0].env is not None
    for probe in probes[1:]:
        assert probe.env == probes[0].env


@settings(max_examples=25, deadline=None)
@given(PROGRAMS, st.integers(0, 2**32 - 1))
def test_hook_acting_many_times_agrees_across_all_tiers(case, seed):
    module, args = case
    golden = ReferenceInterpreter(module).run("f", args)
    rng = make_rng(seed)
    indices = sorted({
        int(i) for i in rng.integers(
            max(1, golden.instructions), size=int(rng.integers(1, 13))
        )
    })
    flips = [bool(flip) for flip in rng.random(len(indices)) < 0.5]
    fuel = golden.instructions * 50 + 2_000

    def hook():
        return _ManyActs(indices, flips, seed)

    hooks = [hook() for _ in range(4)]
    oracle = ReferenceInterpreter(
        module, fuel=fuel, step_hook=hooks[0]
    ).run("f", args)
    fast = Interpreter(
        module, fuel=fuel, step_hook=_every_step(hooks[1])
    ).run("f", args)
    batched = Interpreter(module, fuel=fuel, step_hook=hooks[2]).run("f", args)
    table = GoldenSnapshots()
    Interpreter(module, snapshots=table).run("f", args)
    from_snapshots = Interpreter(
        module, fuel=fuel, step_hook=hooks[3], snapshots=table,
    ).run("f", args)

    assert hooks[0].log
    for result, hooked in zip((fast, batched, from_snapshots), hooks[1:]):
        _assert_same_execution(result, oracle)
        assert hooked.log == hooks[0].log


@settings(max_examples=20, deadline=None)
@given(PROGRAMS, st.integers(1, 200))
def test_fuel_exhaustion_agrees_across_all_tiers(case, fuel):
    module, args = case
    oracle = ReferenceInterpreter(module, fuel=fuel).run("f", args)
    fast = Interpreter(module, fuel=fuel).run("f", args)
    _assert_same_execution(fast, oracle)
