"""Property-based differential testing of every execution tier.

Hypothesis generates random programs and random SEUs, then routes each
case through every execution tier:

1. :class:`repro.ir.refinterp.ReferenceInterpreter` — the oracle;
2. the fast path (per-step dispatch, hook always consulted);
3. batched blocks (``hook_index`` lets pre-window blocks batch);
4. golden snapshots (the SEU run starts at the latest golden snapshot
   at or before ``hook_index`` and stops where it rejoins golden).

All tiers must agree exactly on outcome (status, value, trap reason),
fuel (dynamic instruction and cycle counts) and live register state —
the environment snapshot probed at a random dynamic index.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.faults.model import FaultSpec, FaultTarget
from repro.faults.seu import RegisterFaultInjector
from repro.ir.interp import GoldenSnapshots, Interpreter
from repro.ir.refinterp import ReferenceInterpreter
from repro.rng import make_rng

from tests.ir.test_fuzz_pipeline import PROGRAMS


class _EnvProbe:
    """Step hook that snapshots live registers at one dynamic index."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.env: dict | None = None

    @property
    def fired(self) -> bool:
        return self.env is not None

    def __call__(self, interp, frame, instr, dynamic_index) -> None:
        if self.env is None and dynamic_index >= self.index:
            self.env = dict(frame.env)


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
        module, fuel=fuel, step_hook=injector()
    ).run("f", args)
    batched = Interpreter(
        module, fuel=fuel, step_hook=injector(), hook_index=index
    ).run("f", args)
    table = GoldenSnapshots()
    Interpreter(module, snapshots=table).run("f", args)
    from_snapshots = Interpreter(
        module, fuel=fuel, step_hook=injector(), hook_index=index,
        snapshots=table.bind(module),
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
    fast = Interpreter(module, step_hook=probes[1]).run("f", args)
    batched = Interpreter(
        module, step_hook=probes[2], hook_index=index
    ).run("f", args)

    _assert_same_execution(fast, oracle)
    _assert_same_execution(batched, oracle)
    assert probes[0].env is not None
    for probe in probes[1:]:
        assert probe.env == probes[0].env


@settings(max_examples=20, deadline=None)
@given(PROGRAMS, st.integers(1, 200))
def test_fuel_exhaustion_agrees_across_all_tiers(case, fuel):
    module, args = case
    oracle = ReferenceInterpreter(module, fuel=fuel).run("f", args)
    fast = Interpreter(module, fuel=fuel).run("f", args)
    _assert_same_execution(fast, oracle)
