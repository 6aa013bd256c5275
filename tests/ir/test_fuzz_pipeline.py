"""Property-based fuzzing of the whole IR pipeline.

Hypothesis generates random integer programs (straight-line expression DAGs,
counted loops with random bodies, and hang-prone counted loops bounded by
the argument); every generated program must:

- pass the verifier;
- survive a print -> parse -> print round trip bit-for-bit;
- execute deterministically under the interpreter;
- compute the same value compiled onto the machine emulator;
- compute the same value after tunable-DMR instrumentation at every level.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.dmr import ProtectionLevel, instrument_module
from repro.core.dmr.levels import ALL_LEVELS
from repro.ir.builder import IRBuilder
from repro.ir.function import Function
from repro.ir.instructions import Predicate
from repro.ir.interp import ExecutionStatus, Interpreter
from repro.ir.module import Module
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.ir.types import INT32, INT64
from repro.ir.verifier import verify_module
from repro.machine.codegen import run_compiled
from repro.machine.cpu import RunOutcome

_SAFE_BINOPS = ("add", "sub", "mul", "and_", "or_", "xor")
_PREDICATES = list(Predicate)


@st.composite
def straightline_programs(draw) -> tuple[Module, list[int]]:
    """A random expression DAG over two arguments, ending in a select."""
    module = Module("fuzz")
    func = Function("f", [("a", INT64), ("b", INT64)], INT64)
    module.add_function(func)
    b = IRBuilder(func)
    b.set_block(func.add_block("entry"))

    pool: list = [func.args[0], func.args[1]]
    n_ops = draw(st.integers(3, 14))
    for _ in range(n_ops):
        kind = draw(st.sampled_from(("binop", "const_binop", "select")))
        if kind == "select":
            pred = draw(st.sampled_from(_PREDICATES))
            lhs = pool[draw(st.integers(0, len(pool) - 1))]
            rhs = pool[draw(st.integers(0, len(pool) - 1))]
            cond = b.icmp(pred, lhs, rhs)
            x = pool[draw(st.integers(0, len(pool) - 1))]
            y = pool[draw(st.integers(0, len(pool) - 1))]
            pool.append(b.select(cond, x, y))
            continue
        op_name = draw(st.sampled_from(_SAFE_BINOPS))
        lhs = pool[draw(st.integers(0, len(pool) - 1))]
        if kind == "const_binop":
            rhs = b.i64(draw(st.integers(-1000, 1000)))
        else:
            rhs = pool[draw(st.integers(0, len(pool) - 1))]
        pool.append(getattr(b, op_name)(lhs, rhs))
    b.ret(pool[-1])

    args = [draw(st.integers(-10**12, 10**12)) for _ in range(2)]
    return module, args


@st.composite
def looped_programs(draw) -> tuple[Module, list[int]]:
    """A counted loop with a random accumulator body."""
    module = Module("fuzzloop")
    func = Function("f", [("a", INT64)], INT64)
    module.add_function(func)
    b = IRBuilder(func)
    entry = func.add_block("entry")
    loop = func.add_block("loop")
    done = func.add_block("done")

    trip = draw(st.integers(1, 9))
    b.set_block(entry)
    b.jmp(loop)

    b.set_block(loop)
    i = b.phi(INT64, name="i")
    acc = b.phi(INT64, name="acc")
    pool: list = [i, acc, func.args[0]]
    n_ops = draw(st.integers(1, 6))
    for _ in range(n_ops):
        op_name = draw(st.sampled_from(_SAFE_BINOPS))
        lhs = pool[draw(st.integers(0, len(pool) - 1))]
        rhs = pool[draw(st.integers(0, len(pool) - 1))]
        pool.append(getattr(b, op_name)(lhs, rhs))
    acc2 = b.add(acc, pool[-1])
    i2 = b.add(i, b.i64(1))
    cond = b.icmp(Predicate.LT, i2, b.i64(trip))
    b.br(cond, loop, done)
    i.add_phi_incoming(b.i64(0), entry)
    i.add_phi_incoming(i2, loop)
    acc.add_phi_incoming(b.i64(1), entry)
    acc.add_phi_incoming(acc2, loop)

    b.set_block(done)
    res = b.phi(INT64, name="res")
    res.add_phi_incoming(acc2, loop)
    b.ret(res)

    args = [draw(st.integers(-10**9, 10**9))]
    return module, args


_NEGATED = {
    Predicate.LT: Predicate.GE, Predicate.GE: Predicate.LT,
    Predicate.LE: Predicate.GT, Predicate.GT: Predicate.LE,
    Predicate.EQ: Predicate.NE, Predicate.NE: Predicate.EQ,
}
_SWAPPED = {
    Predicate.LT: Predicate.GT, Predicate.GT: Predicate.LT,
    Predicate.LE: Predicate.GE, Predicate.GE: Predicate.LE,
    Predicate.EQ: Predicate.EQ, Predicate.NE: Predicate.NE,
}


@st.composite
def hang_prone_loops(draw) -> tuple[Module, list[int]]:
    """A counted loop bounded by the argument ``n``.

    ``i`` starts at a constant and moves by a signed constant step; the
    loop leaves when ``exit_pred(i + step, n)`` holds, tested as that
    icmp or as its negation with the branch sense flipped, with the
    operands in either order.  ``n`` is solved so the fault-free loop
    runs ``trip`` (at most 8) passes, so an SEU in ``n`` or ``i`` is what
    makes it spin — up to ~2**62 passes for a flipped high bit of ``n``.
    Width i64 or i32, values optionally near the signed limits.  No
    protection level: ``test_instrumentation_preserves_random_programs``
    instruments every generated program itself.
    """
    type_ = draw(st.sampled_from((INT64, INT32)))
    module = Module("fuzzhang")
    func = Function("f", [("n", type_)], type_)
    module.add_function(func)
    b = IRBuilder(func)
    entry = func.add_block("entry")
    loop = func.add_block("loop")
    done = func.add_block("done")

    exit_pred = draw(st.sampled_from(_PREDICATES))
    trip = draw(st.integers(1, 8))
    step = draw(st.integers(1, 7))
    if exit_pred in (Predicate.LT, Predicate.LE) or (
        exit_pred in (Predicate.EQ, Predicate.NE) and draw(st.booleans())
    ):
        step = -step
    if exit_pred is Predicate.NE:
        trip = min(trip, 2)  # leaves as soon as i + step != n
    # Keep start .. start + trip*step inside the type, near a limit or not.
    span = trip * abs(step)
    offset = draw(st.integers(0, 50))
    start = draw(st.sampled_from((
        draw(st.integers(-50, 50)),
        type_.signed_min + offset + (span if step < 0 else 0),
        type_.signed_max - offset - (span if step > 0 else 0),
    )))
    last = start + trip * step
    slack = draw(st.integers(0, abs(step) - 1))
    n = {
        Predicate.GE: last - slack,
        Predicate.GT: last - 1 - slack,
        Predicate.LE: last + slack,
        Predicate.LT: last + 1 + slack,
        Predicate.EQ: last,
        Predicate.NE: start + step if trip == 2 else start,
    }[exit_pred]

    b.set_block(entry)
    b.jmp(loop)
    b.set_block(loop)
    i = b.phi(type_, name="i")
    acc = b.phi(type_, name="acc")
    op_name = draw(st.sampled_from(_SAFE_BINOPS))
    acc2 = getattr(b, op_name)(acc, i)
    i2 = b.add(i, b.const(type_, step))
    exit_on_true = draw(st.booleans())
    pred = exit_pred if exit_on_true else _NEGATED[exit_pred]
    if draw(st.booleans()):
        cond = b.icmp(pred, i2, func.args[0])
    else:
        cond = b.icmp(_SWAPPED[pred], func.args[0], i2)
    if exit_on_true:
        b.br(cond, done, loop)
    else:
        b.br(cond, loop, done)
    i.add_phi_incoming(b.const(type_, start), entry)
    i.add_phi_incoming(i2, loop)
    acc.add_phi_incoming(b.const(type_, draw(st.integers(-9, 9))), entry)
    acc.add_phi_incoming(acc2, loop)
    b.set_block(done)
    res = b.phi(type_, name="res")
    res.add_phi_incoming(acc2, loop)
    b.ret(res)
    return module, [n]


PROGRAMS = st.one_of(
    straightline_programs(), looped_programs(), hang_prone_loops()
)


@settings(max_examples=40, deadline=None)
@given(PROGRAMS)
def test_generated_programs_verify(case):
    module, _args = case
    verify_module(module)


@settings(max_examples=40, deadline=None)
@given(PROGRAMS)
def test_print_parse_round_trip(case):
    module, _args = case
    text = print_module(module)
    assert print_module(parse_module(text)) == text


@settings(max_examples=40, deadline=None)
@given(PROGRAMS)
def test_interpreter_deterministic_and_total(case):
    module, args = case
    first = Interpreter(module).run("f", args)
    second = Interpreter(module).run("f", args)
    assert first.status is ExecutionStatus.OK
    assert first.value == second.value
    assert first.cycles == second.cycles


@settings(max_examples=30, deadline=None)
@given(PROGRAMS)
def test_codegen_equivalence(case):
    module, args = case
    golden = Interpreter(module).run("f", args)
    outcome, value = run_compiled(module.function("f"), args)
    assert outcome is RunOutcome.HALTED
    assert value == golden.value


@settings(max_examples=15, deadline=None)
@given(PROGRAMS, st.sampled_from([lv for lv in ALL_LEVELS
                                  if lv is not ProtectionLevel.NONE]))
def test_instrumentation_preserves_random_programs(case, level):
    module, args = case
    golden = Interpreter(module).run("f", args)
    instrumented, _plans = instrument_module(module, level)
    verify_module(instrumented)
    protected = Interpreter(instrumented).run("f", args)
    assert protected.status is ExecutionStatus.OK
    assert protected.value == golden.value
