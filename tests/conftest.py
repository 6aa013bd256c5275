"""Shared fixtures: canonical small IR programs used across test modules."""

from __future__ import annotations

import signal
from contextlib import contextmanager

import pytest

from repro.ir.builder import IRBuilder
from repro.ir.function import Function
from repro.ir.instructions import Predicate
from repro.ir.module import Module
from repro.ir.types import F64, INT64
from repro.ir.verifier import verify_module


@pytest.fixture
def abs_diff_module() -> Module:
    """@abs_diff(a, b) -> |a - b| : a two-armed branch, no loops."""
    module = Module("absdiff")
    func = Function("abs_diff", [("a", INT64), ("b", INT64)], INT64)
    module.add_function(func)
    b = IRBuilder(func)
    entry = func.add_block("entry")
    lt = func.add_block("lt")
    ge = func.add_block("ge")
    b.set_block(entry)
    cond = b.icmp(Predicate.LT, func.args[0], func.args[1])
    b.br(cond, lt, ge)
    b.set_block(lt)
    d1 = b.sub(func.args[1], func.args[0])
    b.ret(d1)
    b.set_block(ge)
    d2 = b.sub(func.args[0], func.args[1])
    b.ret(d2)
    verify_module(module)
    return module


@pytest.fixture
def counted_loop_module() -> Module:
    """@triangle(n) -> sum(1..n) : a single counted loop with phis."""
    module = Module("triangle")
    func = Function("triangle", [("n", INT64)], INT64)
    module.add_function(func)
    b = IRBuilder(func)
    entry = func.add_block("entry")
    loop = func.add_block("loop")
    done = func.add_block("done")
    b.set_block(entry)
    positive = b.icmp(Predicate.GT, func.args[0], b.i64(0))
    b.br(positive, loop, done)
    b.set_block(loop)
    i = b.phi(INT64, name="i")
    acc = b.phi(INT64, name="acc")
    acc2 = b.add(acc, i)
    i2 = b.add(i, b.i64(1))
    more = b.icmp(Predicate.LE, i2, func.args[0])
    b.br(more, loop, done)
    i.add_phi_incoming(b.i64(1), entry)
    i.add_phi_incoming(i2, loop)
    acc.add_phi_incoming(b.i64(0), entry)
    acc.add_phi_incoming(acc2, loop)
    b.set_block(done)
    res = b.phi(INT64, name="res")
    res.add_phi_incoming(b.i64(0), entry)
    res.add_phi_incoming(acc2, loop)
    b.ret(res)
    verify_module(module)
    return module


@pytest.fixture
def fp_chain_module() -> Module:
    """@scale(x) -> x*x*0.5/x : a straight-line FP mul/div chain."""
    module = Module("scale")
    func = Function("scale", [("x", F64)], F64)
    module.add_function(func)
    b = IRBuilder(func)
    entry = func.add_block("entry")
    b.set_block(entry)
    sq = b.fmul(func.args[0], func.args[0])
    half = b.fmul(sq, b.f64(0.5))
    out = b.fdiv(half, func.args[0])
    b.ret(out)
    verify_module(module)
    return module


@contextmanager
def _deadline(seconds: int):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def deadline():
    """``with deadline(s):`` fails the test, instead of hanging the suite,
    when the body runs longer than ``s`` seconds (SIGALRM, main thread)."""
    return _deadline
