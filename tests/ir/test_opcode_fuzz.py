"""Every opcode and every trap through both generated block variants.

:mod:`tests.ir.test_fuzz_pipeline`'s programs use six integer binops,
icmp/select and counted loops.  The strategy here adds what they leave
out: float arithmetic, divisions and shifts, every cast, ``mag`` and
``sign``, memory, a phi with three predecessors and a call, with inputs
that reach every trap — ``sdiv``/``srem`` by zero, ``fptosi`` of an
infinity or NaN, ``fdiv`` by ±0.0, an out-of-range load or store, a
negative or oversized alloc.  Each case runs on
:class:`repro.ir.refinterp.ReferenceInterpreter` and on the fast path's
per-step, batched and golden-snapshot tiers, which must agree exactly,
as in :mod:`tests.ir.test_differential_fuzz`.

:func:`test_batched_trap_at_each_body_position` pins the batched
variant's per-line trap charges: one block traps at each of its body
positions in turn and every run matches the reference's counters.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.model import FaultSpec, FaultTarget
from repro.faults.seu import RegisterFaultInjector
from repro.ir.builder import IRBuilder
from repro.ir.function import Function
from repro.ir.instructions import Instruction, Opcode, Predicate
from repro.ir.interp import GoldenSnapshots, Interpreter
from repro.ir.module import Module
from repro.ir.refinterp import ReferenceInterpreter
from repro.ir.types import F64, INT1, INT32, INT64
from repro.rng import make_rng

_INT_OPS = (
    "add", "sub", "mul", "sdiv", "srem", "and_", "or_", "xor", "shl",
    "lshr", "ashr",
)
_FLOAT_OPS = ("fadd", "fsub", "fmul", "fdiv")
_INTS = (0, 1, -1, 3, 7, -5, 63, 2**62, -(2**62))
_FLOATS = (
    0.0, -0.0, 1.5, -2.25, 1e308, 5e-324, math.inf, -math.inf, math.nan,
)
_KINDS = (
    "int", "int", "float", "float", "cmp", "sitofp", "fptosi", "trunc",
    "mag", "sign", "load", "store",
)


def _sign(b: IRBuilder, value) -> Instruction:
    """``sign`` has no builder method; the quantized pass parses it."""
    instr = Instruction(
        Opcode.SIGN, INT1, [value], name=b.func.fresh_name("sgn")
    )
    return b.block.append(instr)


def _ops(draw, b: IRBuilder, ints: list, floats: list, ptr, n: int) -> None:
    """``n`` random instructions over the value pools, results added."""
    def pick(pool):
        return pool[draw(st.integers(0, len(pool) - 1))]

    for _ in range(n):
        kind = draw(st.sampled_from(_KINDS))
        if kind == "int":
            rhs = (b.i64(draw(st.sampled_from(_INTS))) if draw(st.booleans())
                   else pick(ints))
            ints.append(getattr(b, draw(st.sampled_from(_INT_OPS)))(
                pick(ints), rhs
            ))
        elif kind == "float":
            rhs = (b.f64(draw(st.sampled_from(_FLOATS))) if draw(st.booleans())
                   else pick(floats))
            floats.append(getattr(b, draw(st.sampled_from(_FLOAT_OPS)))(
                pick(floats), rhs
            ))
        elif kind == "cmp":
            pred = draw(st.sampled_from(list(Predicate)))
            pool, compare = ((ints, b.icmp) if draw(st.booleans())
                             else (floats, b.fcmp))
            cond = compare(pred, pick(pool), pick(pool))
            pool.append(b.select(cond, pick(pool), pick(pool)))
            ints.append(b.zext(cond))
        elif kind == "sitofp":
            floats.append(b.sitofp(pick(ints)))
        elif kind == "fptosi":
            ints.append(b.fptosi(pick(floats)))
        elif kind == "trunc":
            narrow = b.trunc(pick(ints), draw(st.sampled_from((INT32, INT1))))
            ints.append(b.zext(narrow))
        elif kind == "mag":
            ints.append(b.mag(pick(floats), draw(st.integers(0, 3))))
        elif kind == "sign":
            ints.append(b.zext(_sign(b, pick(floats))))
        else:  # mostly in range: the rest of the program runs
            offset = (pick(ints) if draw(st.integers(0, 3)) == 0
                      else b.i64(draw(st.integers(-1, 6))))
            address = b.gep(ptr, offset)
            if kind == "store":
                b.store(pick(ints if draw(st.booleans()) else floats), address)
            elif draw(st.booleans()):
                ints.append(b.load(address, INT64))
            else:
                floats.append(b.load(address, F64))


@st.composite
def opcode_programs(draw) -> tuple[Module, list]:
    """``f(a, b, x, y)``: entry branches to left or mid, mid to right or
    join, and join's phis read from left, mid and right; join calls
    ``g`` and returns an integer."""
    module = Module("opfuzz")
    g = Function("g", [("x", INT64)], INT64)
    module.add_function(g)
    gb = IRBuilder(g)
    gb.set_block(g.add_block("entry"))
    gb.ret(gb.add(gb.mul(g.args[0], gb.i64(3)), gb.i64(1)))

    func = Function(
        "f", [("a", INT64), ("b", INT64), ("x", F64), ("y", F64)], INT64
    )
    module.add_function(func)
    b = IRBuilder(func)
    entry, left, mid, right, join = (
        func.add_block(name)
        for name in ("entry", "left", "mid", "right", "join")
    )
    a, b_arg, x, y = func.args
    b.set_block(entry)
    count = a if draw(st.integers(0, 4)) == 0 else b.i64(
        draw(st.integers(0, 6))
    )
    ptr = b.alloc(count)
    ints, floats = [a, b_arg], [x, y]
    _ops(draw, b, ints, floats, ptr, draw(st.integers(1, 8)))
    b.br(b.icmp(Predicate.LT, ints[-1], b_arg), left, mid)

    arms = {}
    for block, successor in ((left, None), (mid, right), (right, None)):
        b.set_block(block)
        own_ints, own_floats = list(ints), list(floats)
        _ops(draw, b, own_ints, own_floats, ptr, draw(st.integers(0, 4)))
        if successor is None:
            b.jmp(join)
        else:
            b.br(b.fcmp(Predicate.GT, own_floats[-1], y), successor, join)
        arms[block] = (own_ints, own_floats)

    b.set_block(join)
    for _ in range(draw(st.integers(1, 3))):
        is_int = draw(st.booleans())
        phi = b.phi(INT64 if is_int else F64)
        for block, (own_ints, own_floats) in arms.items():
            pool = own_ints if is_int else own_floats
            phi.add_phi_incoming(
                pool[draw(st.integers(0, len(pool) - 1))], block
            )
        (ints if is_int else floats).append(phi)
    ints.append(b.call("g", [ints[draw(st.integers(0, len(ints) - 1))]],
                       INT64))
    _ops(draw, b, ints, floats, ptr, draw(st.integers(0, 6)))
    b.ret(ints[-1])

    args = [draw(st.sampled_from(_INTS)), draw(st.sampled_from(_INTS)),
            draw(st.sampled_from(_FLOATS)), draw(st.sampled_from(_FLOATS))]
    return module, args


def _every_step(hook):
    """``hook`` as a plain callable: no ``next_index``, every index."""
    return lambda interp, frame, instr, index: hook(
        interp, frame, instr, index
    )


def _outcome(interp, args):
    """The run's result, or the Python error it raised (not a trap)."""
    try:
        return interp.run("f", args)
    except Exception as exc:
        return type(exc), str(exc)


def _same(a, b) -> bool:
    return a == b or (
        isinstance(a, float) and isinstance(b, float)
        and math.isnan(a) and math.isnan(b)
    )


def _assert_same(result, oracle) -> None:
    if isinstance(oracle, tuple):
        assert result == oracle
        return
    assert result.status == oracle.status
    assert _same(result.value, oracle.value), (result.value, oracle.value)
    assert result.instructions == oracle.instructions
    assert result.cycles == oracle.cycles
    assert result.trap_reason == oracle.trap_reason


@settings(max_examples=60, deadline=None)
@given(opcode_programs())
def test_clean_run_agrees_on_both_variants(case):
    module, args = case
    oracle = _outcome(ReferenceInterpreter(module), args)
    _assert_same(_outcome(Interpreter(module), args), oracle)
    _assert_same(
        _outcome(Interpreter(module, step_hook=lambda *a: None), args), oracle
    )


@settings(max_examples=60, deadline=None)
@given(opcode_programs(), st.integers(0, 2**32 - 1))
def test_random_seu_agrees_across_all_tiers(case, seed):
    module, args = case
    golden = _outcome(ReferenceInterpreter(module), args)
    ran = 1 if isinstance(golden, tuple) else golden.instructions
    index = int(make_rng(seed).integers(max(1, ran)))
    fuel = ran * 50 + 2_000

    def injector():
        spec = FaultSpec(target=FaultTarget.REGISTER, dynamic_index=index)
        return RegisterFaultInjector(spec, seed=make_rng(seed))

    oracle = _outcome(
        ReferenceInterpreter(module, fuel=fuel, step_hook=injector()), args
    )
    per_step = _outcome(
        Interpreter(module, fuel=fuel, step_hook=_every_step(injector())),
        args,
    )
    batched = _outcome(
        Interpreter(module, fuel=fuel, step_hook=injector()), args
    )
    table = GoldenSnapshots()
    _outcome(Interpreter(module, snapshots=table), args)
    from_snapshots = _outcome(Interpreter(
        module, fuel=fuel, step_hook=injector(), snapshots=table,
    ), args)
    for result in (per_step, batched, from_snapshots):
        _assert_same(result, oracle)


# -- trap position ---------------------------------------------------------------

#: Body position ``i`` of the ladder traps in this way when ``k == i``.
_TRAPS = ("sdiv", "srem", "fptosi", "load", "store", "alloc")


def _trap_ladder(width: int) -> Module:
    """``f(k)``: block ``ladder`` (two phis) traps at body position ``k``.

    The entry block computes, per position ``i``, operands that trap
    exactly when ``k == i``: a zero divisor, an infinity, an address
    1000 cells past the heap and a count of -1.
    """
    module = Module("ladder")
    func = Function("f", [("k", INT64)], INT64)
    module.add_function(func)
    b = IRBuilder(func)
    entry, ladder = func.add_block("entry"), func.add_block("ladder")
    b.set_block(entry)
    k = func.args[0]
    heap = b.alloc(b.i64(4))
    operands = []
    for i in range(width):
        z = b.zext(b.icmp(Predicate.NE, k, b.i64(i)))  # 0 iff k == i
        operands.append({
            "sdiv": z, "srem": z,
            "fptosi": b.fdiv(b.f64(1.0), b.sitofp(z)),
            "load": b.gep(heap, b.mul(b.sub(b.i64(1), z), b.i64(1000))),
            "alloc": b.sub(z, b.i64(1)),
        })
    b.jmp(ladder)
    b.set_block(ladder)
    acc = b.phi(INT64)
    half = b.phi(F64)
    acc.add_phi_incoming(k, entry)
    half.add_phi_incoming(b.f64(0.5), entry)
    for i in range(width):
        trap, ops = _TRAPS[i % len(_TRAPS)], operands[i]
        if trap == "sdiv":
            b.sdiv(acc, ops["sdiv"])
        elif trap == "srem":
            b.srem(acc, ops["srem"])
        elif trap == "fptosi":
            b.fptosi(ops["fptosi"])
        elif trap == "load":
            b.load(ops["load"], F64)
        elif trap == "store":
            b.store(half, ops["load"])
        else:
            b.alloc(ops["alloc"])
    b.ret(acc)
    return module


def test_batched_trap_at_each_body_position(monkeypatch):
    width = 2 * len(_TRAPS)
    module = _trap_ladder(width)
    per_step = []
    run_block = Interpreter._run_block

    def counting(self, frame, skip_phis=False):
        per_step.append(frame.block.name)
        return run_block(self, frame, skip_phis)

    monkeypatch.setattr(Interpreter, "_run_block", counting)
    reasons = []
    for k in range(width + 1):
        oracle = ReferenceInterpreter(module).run("f", [k])
        batched = Interpreter(module).run("f", [k])
        _assert_same(batched, oracle)
        assert not per_step  # every block ran batched
        stepped = Interpreter(module, step_hook=lambda *a: None).run("f", [k])
        _assert_same(stepped, oracle)
        per_step.clear()
        reasons.append(oracle.trap_reason)
    assert reasons == [
        "integer division by zero", "integer remainder by zero",
        "fptosi of non-finite value inf", "load from invalid address 1000",
        "store to invalid address 1000", "negative allocation of -1 cells",
    ] * 2 + [""]


@pytest.mark.parametrize("divisor", [0.0, -0.0])
@pytest.mark.parametrize("dividend", [2.5, -2.5, 0.0, math.nan])
def test_fdiv_by_signed_zero_on_both_variants(dividend, divisor):
    module = Module("fdiv")
    func = Function("f", [("x", F64), ("y", F64)], F64)
    module.add_function(func)
    b = IRBuilder(func)
    b.set_block(func.add_block("entry"))
    b.ret(b.fdiv(func.args[0], func.args[1]))
    args = [dividend, divisor]
    oracle = ReferenceInterpreter(module).run("f", args)
    for interp in (Interpreter(module),
                   Interpreter(module, step_hook=lambda *a: None)):
        result = interp.run("f", args)
        _assert_same(result, oracle)
        assert math.copysign(1.0, result.value) == \
            math.copysign(1.0, oracle.value)


def _undefined_reads() -> Module:
    """``f(a)``: ``^use`` reads ``%x``, defined on one path only.

    Reached from ``^entry`` (``a >= 0``) its second phi and its body
    each read an undefined value: ``@phi`` reads it in the phi, ``@body``
    in the body, after the phis.
    """
    module = Module("undefined")
    for name in ("phi", "body"):
        func = Function(name, [("a", INT64)], INT64)
        module.add_function(func)
        b = IRBuilder(func)
        entry, define, use = (func.add_block(n) for n in ("entry", "def", "use"))
        b.set_block(entry)
        b.br(b.icmp(Predicate.LT, func.args[0], b.i64(0)), define, use)
        b.set_block(define)
        x = b.add(func.args[0], b.i64(1), name="x")
        b.jmp(use)
        b.set_block(use)
        q = b.phi(INT64, name="q")
        q.add_phi_incoming(b.i64(1), entry)
        q.add_phi_incoming(b.i64(2), define)
        if name == "phi":
            p = b.phi(INT64, name="p")
            p.add_phi_incoming(x, entry)
            p.add_phi_incoming(x, define)
            b.ret(b.add(p, q))
        else:
            y = b.mul(q, b.i64(3))
            b.ret(b.add(b.add(y, q), x))
    return module


@pytest.mark.parametrize("func", ["phi", "body"])
@pytest.mark.parametrize("a", [-4, 4])
def test_undefined_read_traps_on_both_variants(func, a):
    module = _undefined_reads()
    oracle = ReferenceInterpreter(module).run(func, [a])
    assert oracle.trap_reason == ("" if a < 0 else "read of undefined value %x")
    for interp in (Interpreter(module),
                   Interpreter(module, step_hook=lambda *a: None)):
        _assert_same(interp.run(func, [a]), oracle)


def test_key_error_from_a_hook_is_not_a_trap():
    module = _undefined_reads()

    def hook(interp, frame, instr, index):
        if index == 2:
            raise KeyError("x")

    for interp in (ReferenceInterpreter(module, step_hook=hook),
                   Interpreter(module, step_hook=hook)):
        with pytest.raises(KeyError):
            interp.run("body", [-4])
