"""Trial streams against numpy, the oracle: same children, same draws.

``trial_streams(seed, n)[k]`` must hold the state of numpy's
``make_rng(seed).spawn(n)[k]`` and answer every ``integers(high)`` with
numpy's value, leaving the state where numpy leaves it.  Bounds cover
each branch of numpy's bounded draw: nothing to draw, the buffered 32-bit
Lemire draw (with bounds that reject often), a raw 32-bit output and the
64-bit Lemire draw, which must not touch the 32-bit buffer.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.campaign import Campaign, run_campaign, run_campaign_pruned
from repro.faults.model import FaultSpec, FaultTarget
from repro.faults.seu import HeapFaultInjector, RegisterFaultInjector
from repro.rng import (
    DEFAULT_SEED, TrialStream, make_rng, trial_rngs, trial_streams,
)
from repro.workloads.irprograms import PROGRAMS, build_program

SEEDS = (
    None, 0, 1, DEFAULT_SEED, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 1,
    2**130 + 7,
)

#: One bound per branch and edge of numpy's bounded draw.  2**31 + 1 and
#: 2**62 + 1 reject about half and a quarter of their first draws.
BOUNDS = (
    1, 2, 3, 2**31, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**40,
    2**62 + 1, 2**63 - 1, 2**63,
)

seeds = st.one_of(
    st.sampled_from(SEEDS), st.integers(0, 2**64), st.integers(2**64, 2**200)
)
bounds = st.one_of(st.sampled_from(BOUNDS), st.integers(1, 2**63))


def _state(stream: TrialStream) -> dict:
    return {
        "bit_generator": "PCG64",
        "state": {"state": stream.state, "inc": stream.inc},
        "has_uint32": int(stream.has_uint32),
        "uinteger": stream.uinteger,
    }


def _children(seed, n):
    return trial_streams(seed, n), make_rng(seed).spawn(n)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", (0, 1, 100, 1000))
def test_children_hold_numpys_spawned_states(seed, n):
    streams, children = _children(seed, n)
    assert len(streams) == n
    assert [_state(s) for s in streams] == [
        c.bit_generator.state for c in children
    ]


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=st.integers(1, 40))
def test_any_seed_spawns_numpys_children(seed, n):
    streams, children = _children(seed, n)
    assert [_state(s) for s in streams] == [
        c.bit_generator.state for c in children
    ]


@settings(max_examples=150, deadline=None)
@given(seed=seeds, child=st.integers(0, 7), highs=st.lists(bounds, max_size=24))
def test_draws_equal_numpys(seed, child, highs):
    stream, numpy_child = (side[child] for side in _children(seed, 8))
    for high in highs:
        assert stream.integers(high) == numpy_child.integers(high)
        assert _state(stream) == numpy_child.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
def test_64_bit_draw_between_buffered_halves(seed):
    """A 32-bit draw leaves the output's upper half buffered; a 64-bit
    draw must leave it there for the next 32-bit draw."""
    (stream,), (numpy_child,) = _children(seed, 1)
    highs = (3, 2**40, 2**31 + 1, 2**32 + 1, 2**32, 2**63, 7, 1, 2**32 - 1)
    for high in highs * 20:
        assert stream.integers(high) == numpy_child.integers(high)
    assert _state(stream) == numpy_child.bit_generator.state


class _CountingStream(TrialStream):
    """Counts PCG64 steps: two 32-bit outputs or one 64-bit output each."""

    __slots__ = ("steps",)

    def __init__(self, stream: TrialStream) -> None:
        super().__init__(stream.state, stream.inc)
        self.steps = 0

    def _next64(self) -> int:
        self.steps += 1
        return super()._next64()


@pytest.mark.parametrize("high,steps_without_rejection", (
    (2**31 + 1, 100), (2**62 + 1, 200),
))
def test_rejection_loops_run(high, steps_without_rejection):
    """Bounds that reject often take more outputs than they return, and
    still return numpy's values."""
    (stream,), (numpy_child,) = _children(9, 1)
    stream = _CountingStream(stream)
    draws = [stream.integers(high) for _ in range(200)]
    assert draws == [int(numpy_child.integers(high)) for _ in range(200)]
    assert stream.steps > 1.2 * steps_without_rejection


@settings(max_examples=60, deadline=None)
@given(seed=seeds, highs=st.lists(bounds, max_size=9))
def test_generator_continues_mid_stream(seed, highs):
    (stream,), (numpy_child,) = _children(seed, 1)
    for high in highs:
        stream.integers(high)
        numpy_child.integers(high)
    generator = stream.generator()
    assert generator.bit_generator.state == numpy_child.bit_generator.state
    p = [0.1, 0.2, 0.3, 0.4]
    assert generator.random() == numpy_child.random()
    assert generator.integers(1 << 16) == numpy_child.integers(1 << 16)
    assert generator.choice(4, p=p) == numpy_child.choice(4, p=p)
    assert generator.integers(3) == numpy_child.integers(3)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, before=st.lists(bounds, max_size=9),
       after=st.lists(bounds, max_size=9))
def test_pickled_stream_continues_mid_stream(seed, before, after):
    (stream,), (numpy_child,) = _children(seed, 1)
    for high in before:
        stream.integers(high)
        numpy_child.integers(high)
    stream = pickle.loads(pickle.dumps(stream))
    assert _state(stream) == numpy_child.bit_generator.state
    for high in after:
        assert stream.integers(high) == numpy_child.integers(high)


@pytest.mark.parametrize("high", (0, -1, -(2**70), 2**63 + 1, 2**64))
def test_invalid_bounds_raise_like_numpy(high):
    (stream,), (numpy_child,) = _children(3, 1)
    with pytest.raises(ValueError):
        numpy_child.integers(high)
    with pytest.raises(ValueError):
        stream.integers(high)


def test_invalid_seed_and_count_raise():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError):
        trial_streams(-1, 3)
    with pytest.raises(ValueError):
        trial_streams(1, -1)


def test_generator_seeds_keep_numpys_spawn():
    parent, twin = make_rng(4), make_rng(4)
    children = trial_rngs(parent, 3)
    assert all(isinstance(c, np.random.Generator) for c in children)
    assert [c.bit_generator.state for c in children] == [
        c.bit_generator.state for c in twin.spawn(3)
    ]
    assert isinstance(trial_rngs(4, 3)[0], TrialStream)
    stream = trial_streams(4, 1)[0]
    assert make_rng(stream) is stream


def test_resolved_injectors_build_no_generator():
    register = RegisterFaultInjector(
        FaultSpec(FaultTarget.REGISTER, 5, location="x", bit=3), seed=1
    )
    heap = HeapFaultInjector(
        FaultSpec(FaultTarget.MEMORY, 5, location=0, bit=3), seed=1
    )
    assert register.rng is None and heap.rng is None
    half = RegisterFaultInjector(
        FaultSpec(FaultTarget.REGISTER, 5, location="x"), seed=1
    )
    assert isinstance(half.rng, np.random.Generator)


def test_integer_seeded_campaigns_build_no_generator(monkeypatch):
    campaign = Campaign(
        module=build_program("isort"), func_name="isort",
        args=PROGRAMS["isort"].default_args, n_trials=24,
    )
    plain = run_campaign(campaign, seed=11)

    def refuse(*_args, **_kwargs):
        raise AssertionError("a numpy Generator was built")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(np.random, "PCG64", refuse)
    assert run_campaign(campaign, seed=11).trials == plain.trials
    assert run_campaign_pruned(campaign, seed=11).trials == plain.trials
