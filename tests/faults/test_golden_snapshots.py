"""Golden snapshots: a trial starts late and stops when it rejoins golden.

``run_golden`` records a table of block-entry snapshots
(:class:`repro.ir.interp.GoldenSnapshots`); a trial starts at the latest
one at or before its fault, golden's whole env restored, and, once the
fault has fired, ends with golden's record at the first later point
where its state equals golden's: every value live there, and the heap
whole.  These tests pin the table's shape, the state compare (floats by
their bits, the heap included, never before the fault fires, a value
compared while it is live and not once it is dead, a phi operand live on
the edge the run arrives by), that a trial starting where a name is
already dead draws its register from the whole env, that records equal
full runs on every campaign-plain cell, and that an identical clone
runs its own golden run and its own blocks.
"""

import math
import struct

import pytest

from repro.analysis.liveness import liveness
from repro.core.dmr import ProtectionLevel, instrument_module
from repro.faults.campaign import (
    Campaign,
    plan_trials,
    run_campaign,
    run_golden,
    run_trial,
    trial_fuel_for,
)
from repro.faults.model import FaultSpec, FaultTarget
from repro.faults.outcomes import FaultOutcome
from repro.faults.seu import HeapFaultInjector, RegisterFaultInjector
from repro.ir.interp import (
    ExecutionStatus, GoldenSnapshots, Interpreter, module_code,
)
from repro.ir.loops import CountedLoop
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.ir.refinterp import ReferenceInterpreter
from repro.workloads.irprograms import PROGRAMS, build_program

from tests.identity import canonical

#: 1 / (a - a) after a counted loop: +inf, or -inf once z is -0.0.
SIGNED_ZERO = """
func @f(%a: f64) -> f64 {
^entry:
  %z = fsub f64 %a, %a
  jmp ^loop
^loop:
  %i = phi i64 [0, ^entry], [%i2, ^loop]
  %i2 = add i64 %i, 1
  %c = icmp lt i64 %i2, 10
  br %c, ^loop, ^exit
^exit:
  %r = fdiv f64 1.0, %z
  ret f64 %r
}
"""

#: Stores a into a heap cell, loops, then reads the cell back.
HEAP_READ_LATE = """
func @f(%a: i64) -> i64 {
^entry:
  %p = alloc i64 2
  %q = gep %p, i64 1
  store i64 %a, %q
  jmp ^loop
^loop:
  %i = phi i64 [0, ^entry], [%i2, ^loop]
  %i2 = add i64 %i, 1
  %c = icmp lt i64 %i2, 10
  br %c, ^loop, ^exit
^exit:
  %v = load i64 %q
  ret i64 %v
}
"""

#: Loops first and allocates last: a heap fault waits for the alloc.
ALLOC_LATE = """
func @f(%a: i64) -> i64 {
^entry:
  jmp ^loop
^loop:
  %i = phi i64 [0, ^entry], [%i2, ^loop]
  %i2 = add i64 %i, 1
  %c = icmp lt i64 %i2, %a
  br %c, ^loop, ^exit
^exit:
  %p = alloc i64 1
  %v = load i64 %p
  %r = add i64 %v, %i2
  ret i64 %r
}
"""

#: b is read once, by ^mid's and (which masks it); past ^mid it is dead.
LIVE_THEN_DEAD = """
func @f(%a: i64) -> i64 {
^entry:
  %b = add i64 %a, 1
  jmp ^first
^first:
  %i = phi i64 [0, ^entry], [%i2, ^first]
  %i2 = add i64 %i, 1
  %c = icmp lt i64 %i2, 4
  br %c, ^first, ^mid
^mid:
  %d = and i64 %b, 0
  jmp ^second
^second:
  %j = phi i64 [%d, ^mid], [%j2, ^second]
  %j2 = add i64 %j, 1
  %e = icmp lt i64 %j2, 4
  br %e, ^second, ^exit
^exit:
  ret i64 %j2
}
"""

#: p is read only by ^join's phi, on the edge from ^left.
EDGE_OPERAND = """
func @f(%a: i64) -> i64 {
^entry:
  %p = add i64 %a, 1
  %q = add i64 %a, 2
  %c = icmp lt i64 %a, 100
  br %c, ^left, ^right
^left:
  jmp ^join
^right:
  jmp ^join
^join:
  %x = phi i64 [%p, ^left], [%q, ^right]
  ret i64 %x
}
"""


def _campaign(module, name, args, target=FaultTarget.REGISTER, **kw):
    return Campaign(
        module=module, func_name=name, args=tuple(args), target=target, **kw
    )


def _trial(campaign, injector, snapshots=True):
    """One trial run by the engine, with or without golden's table."""
    golden = run_golden(campaign)
    return run_trial(
        campaign, golden, trial_fuel_for(campaign, golden), None,
        module_code(campaign.module, campaign.cost_model),
        injector=injector,
        snapshots=golden.snapshots if snapshots else None,
    )


def _reference(campaign, injector):
    golden = run_golden(campaign)
    return ReferenceInterpreter(
        campaign.module, cost_model=campaign.cost_model,
        fuel=trial_fuel_for(campaign, golden), step_hook=injector,
    ).run(campaign.func_name, list(campaign.args))


@pytest.fixture
def rejoins(monkeypatch):
    """Instruction count of every rejoin, in order."""
    seen = []
    rejoined = GoldenSnapshots.rejoined

    def recording(self, frame, interp):
        result = rejoined(self, frame, interp)
        if result is None:
            seen.append(interp.instructions)
        return result

    monkeypatch.setattr(GoldenSnapshots, "rejoined", recording)
    return seen


class TestTable:
    @pytest.mark.parametrize("name,args", [
        ("orbit", None), ("collatz", [27]), ("dot", [2000]), ("fact", None),
    ])
    def test_points_are_the_first_top_frame_entries_at_each_multiple(
        self, name, args
    ):
        module = build_program(name)
        args = list(PROGRAMS[name].default_args) if args is None else args
        table = GoldenSnapshots()
        golden = Interpreter(module, snapshots=table).run(name, args)
        assert golden.ok and golden.snapshots is table
        assert table.result == (golden.value, golden.cycles,
                                golden.instructions)

        # Every top-frame block entry, from a traced run: these
        # programs make no call, so each block entry is one.
        entries, n = [], 0
        func = module.function(name)
        traced = Interpreter(module, record_trace=True).run(name, args)
        for _func, block in traced.block_trace:
            entries.append((n, block))
            n += len(func.block(block).instructions)
        assert n == golden.instructions
        # The stride the table settled on, and what it records.
        counts = [point[0] for point in table.points]
        stride = 1
        while True:
            expected = []
            for n, block in entries:
                if not expected or n >= (expected[-1][0] // stride + 1) * stride:
                    expected.append((n, block))
            if len(expected) <= 65:
                break
            stride *= 2
        assert [(p[0], p[2].name) for p in table.points] == expected
        assert counts[0] == 0 and len(counts) <= 65
        if golden.instructions > 64 * 8:
            assert len(counts) >= 16

    def test_traced_or_hooked_runs_record_nothing(self):
        module = build_program("dot")
        for kwargs in ({"record_trace": True},
                       {"step_hook": lambda *args: None}):
            table = GoldenSnapshots()
            result = Interpreter(module, snapshots=table, **kwargs).run(
                "dot", list(PROGRAMS["dot"].default_args)
            )
            assert result.ok and result.snapshots is None
            assert table.points == [] and table.result is None


class TestStateCompare:
    def test_sign_flip_of_a_live_zero_ends_sdc(self, rejoins):
        # z is 0.0 in golden and -0.0 after the flip: equal by value at
        # every later snapshot, yet 1 / z is +inf in one and -inf in the
        # other.
        campaign = _campaign(parse_module(SIGNED_ZERO), "f", [2.5])
        spec = FaultSpec(
            target=FaultTarget.REGISTER, dynamic_index=1, location="z", bit=63,
        )
        golden = run_golden(campaign)
        assert golden.value == math.inf
        trial = _trial(campaign, RegisterFaultInjector(spec))
        ref = _reference(campaign, RegisterFaultInjector(spec))
        assert ref.value == -math.inf
        assert trial.outcome is FaultOutcome.SDC
        assert trial.value == -math.inf and trial.cycles == ref.cycles
        assert rejoins == []

    def test_heap_fault_read_after_the_snapshot_does_not_rejoin(
        self, rejoins
    ):
        # The flipped cell is read back only after the loop; at every
        # snapshot point inside it the env equals golden's.
        campaign = _campaign(
            parse_module(HEAP_READ_LATE), "f", [40], FaultTarget.MEMORY,
        )
        spec = FaultSpec(
            target=FaultTarget.MEMORY, dynamic_index=3, location=1, bit=3,
        )
        trial = _trial(campaign, HeapFaultInjector(spec))
        ref = _reference(campaign, HeapFaultInjector(spec))
        assert ref.value == 40 ^ 8
        assert trial.outcome is FaultOutcome.SDC
        assert (trial.value, trial.cycles) == (ref.value, ref.cycles)
        assert rejoins == []

    def test_fault_waiting_for_live_state_rejoins_only_after_firing(
        self, rejoins
    ):
        # Drawn at instruction 0, the heap fault waits for the alloc at
        # the end; every snapshot before it equals golden's.
        campaign = _campaign(
            parse_module(ALLOC_LATE), "f", [30], FaultTarget.MEMORY,
        )
        spec = FaultSpec(
            target=FaultTarget.MEMORY, dynamic_index=0, location=0, bit=4,
        )
        injector = HeapFaultInjector(spec)
        trial = _trial(campaign, injector)
        ref = _reference(campaign, HeapFaultInjector(spec))
        assert injector.fired and trial.spec.location == 0
        assert trial.spec.dynamic_index > 4 * 29
        assert (trial.value, trial.cycles) == (ref.value, ref.cycles) \
            == (30 + 16, ref.cycles)
        assert trial.outcome is FaultOutcome.SDC
        assert rejoins == []

    def test_benign_flip_rejoins_with_golden_record(self, rejoins):
        # A flip of the loop-exit compare's input that the next pass
        # overwrites: the state is golden's again at a later point.
        campaign = _campaign(parse_module(HEAP_READ_LATE), "f", [40])
        golden = run_golden(campaign)
        spec = FaultSpec(
            target=FaultTarget.REGISTER, dynamic_index=9, location="c", bit=0,
        )
        trial = _trial(campaign, RegisterFaultInjector(spec))
        full = _trial(campaign, RegisterFaultInjector(spec), snapshots=False)
        assert canonical(trial) == canonical(full)
        assert trial.outcome is FaultOutcome.BENIGN
        assert trial.cycles == golden.cycles
        assert rejoins


def _bits(value):
    """A value as the interpreter tells it apart: its type and bits."""
    if isinstance(value, float):
        return float, struct.pack("<d", value)
    return type(value), value


def _point(golden, n):
    """Golden's point at instruction ``n``: (block, names live, env)."""
    table = golden.snapshots
    point = table.points[table.counts.index(n)]
    return point[2].name, point[6], point[4]


class TestLiveCompare:
    def test_flip_rejoins_once_the_value_is_dead(self, rejoins):
        # b is flipped in ^first and read by ^mid: no point up to ^mid's
        # entry may rejoin.  At ^second's first entry b is dead and every
        # live value equals golden's, though b still differs in env.
        campaign = _campaign(parse_module(LIVE_THEN_DEAD), "f", [7])
        golden = run_golden(campaign)
        spec = FaultSpec(
            target=FaultTarget.REGISTER, dynamic_index=7, location="b",
            bit=3,
        )
        trial = _trial(campaign, RegisterFaultInjector(spec))
        full = _trial(campaign, RegisterFaultInjector(spec), snapshots=False)
        ref = _reference(campaign, RegisterFaultInjector(spec))
        assert canonical(trial) == canonical(full)
        assert (trial.value, trial.cycles) == (ref.value, ref.cycles) \
            == (golden.value, golden.cycles)
        assert trial.outcome is FaultOutcome.BENIGN
        assert _point(golden, 10)[:2] == ("first", ("b", "i2"))
        assert _point(golden, 18)[:2] == ("mid", ("b",))
        assert _point(golden, 20)[:2] == ("second", ("d",))
        assert rejoins == [20]

    def test_phi_operand_live_on_the_arriving_edge_blocks_rejoin(
        self, rejoins
    ):
        # p is not live into ^join (its phi reads it on the edge), so only
        # the edge half of the live set sees the flip.
        campaign = _campaign(parse_module(EDGE_OPERAND), "f", [5])
        golden = run_golden(campaign)
        live_in = liveness(campaign.module.function("f")).live_in
        assert "p" not in live_in["join"]
        assert _point(golden, 5)[:2] == ("join", ("p",))
        spec = FaultSpec(
            target=FaultTarget.REGISTER, dynamic_index=4, location="p",
            bit=2,
        )
        trial = _trial(campaign, RegisterFaultInjector(spec))
        full = _trial(campaign, RegisterFaultInjector(spec), snapshots=False)
        ref = _reference(campaign, RegisterFaultInjector(spec))
        assert canonical(trial) == canonical(full)
        assert (trial.value, trial.cycles) == (ref.value, ref.cycles)
        assert trial.value == 6 ^ 4 and trial.outcome is FaultOutcome.SDC
        assert rejoins == []

    def test_draw_after_a_late_start_sees_dead_names(self):
        # The trial starts at instruction 24, where only j2 is live of
        # nine names in env, and draws its register there: from the whole
        # env, as the full run does.
        campaign = _campaign(parse_module(LIVE_THEN_DEAD), "f", [7])
        golden = run_golden(campaign)
        _block, names, env = _point(golden, 24)
        assert names == ("j2",) and len(env) == 9
        spec = FaultSpec(target=FaultTarget.REGISTER, dynamic_index=25)
        trial = _trial(campaign, RegisterFaultInjector(spec, seed=2))
        full = _trial(
            campaign, RegisterFaultInjector(spec, seed=2), snapshots=False,
        )
        injector = RegisterFaultInjector(spec, seed=2)
        ref = _reference(campaign, injector)
        assert canonical(trial) == canonical(full)
        assert (trial.spec.location, trial.spec.bit) \
            == (injector.resolved.location, injector.resolved.bit)
        assert trial.spec.location not in names
        assert (trial.value, trial.cycles) == (ref.value, ref.cycles)


#: campaign-plain's program x protection-level cells.
PLAIN_CELLS = [
    (name, level)
    for name in ("isort", "orbit", "dot", "checksum")
    for level in ("none", "full-dmr")
]


def _module(name: str, level: str):
    module = build_program(name)
    if level != "none":
        module, _plans = instrument_module(module, ProtectionLevel(level))
    return module


class TestCampaignCells:
    @pytest.mark.parametrize("name,level", PLAIN_CELLS)
    def test_records_equal_full_runs_and_rejoins_are_benign(
        self, name, level, monkeypatch
    ):
        campaign = _campaign(
            _module(name, level), name, PROGRAMS[name].default_args,
            n_trials=100,
        )
        rejoined = GoldenSnapshots.rejoined
        flags = []

        def recording(self, frame, interp):
            result = rejoined(self, frame, interp)
            if result is None:
                flags[-1] = True
            return result

        monkeypatch.setattr(GoldenSnapshots, "rejoined", recording)
        run = Interpreter.run

        def tracking(self, func_name, args):
            flags.append(False)
            return run(self, func_name, args)

        monkeypatch.setattr(Interpreter, "run", tracking)
        golden = run_golden(campaign)
        assert golden.snapshots is not None
        fuel = trial_fuel_for(campaign, golden)
        code = module_code(campaign.module, campaign.cost_model)
        with_table, flags_by_trial = [], []
        for planned in plan_trials(campaign, 5):
            with_table.append(run_trial(
                campaign, golden, fuel, planned.rng, code,
                snapshots=golden.snapshots,
            ))
            flags_by_trial.append(flags[-1])
        full = [
            run_trial(campaign, golden, fuel, planned.rng, code)
            for planned in plan_trials(campaign, 5)
        ]
        assert canonical(with_table) == canonical(full)
        assert canonical(run_campaign(campaign, seed=5).trials) \
            == canonical(full)
        rejoined_trials = [
            trial for trial, flag in zip(with_table, flags_by_trial) if flag
        ]
        assert rejoined_trials
        assert all(
            trial.outcome is FaultOutcome.BENIGN
            and trial.cycles == golden.cycles
            for trial in rejoined_trials
        )

    @pytest.mark.parametrize("name,level", PLAIN_CELLS)
    def test_some_trial_rejoins_with_a_dead_value_still_flipped(
        self, name, level, monkeypatch
    ):
        # The live-state compare at work: these trials rejoin while a
        # value no later instruction reads still differs from golden's.
        campaign = _campaign(
            _module(name, level), name, PROGRAMS[name].default_args,
            n_trials=100,
        )
        golden = run_golden(campaign)
        fuel = trial_fuel_for(campaign, golden)
        code = module_code(campaign.module, campaign.cost_model)
        rejoined = GoldenSnapshots.rejoined
        differs = []

        def recording(self, frame, interp):
            result = rejoined(self, frame, interp)
            if result is None:
                _block, names, env = _point(golden, interp.instructions)
                differs.append((names, {
                    key for key, value in frame.env.items()
                    if key not in env or _bits(value) != _bits(env[key])
                }))
            return result

        monkeypatch.setattr(GoldenSnapshots, "rejoined", recording)
        checked = 0
        for planned in plan_trials(campaign, 5):
            differs.clear()
            trial = run_trial(
                campaign, golden, fuel, planned.rng, code,
                snapshots=golden.snapshots,
            )
            if not differs or not differs[0][1]:
                continue
            names, dead = differs[0]
            assert dead.isdisjoint(names)
            full = run_trial(
                campaign, golden, fuel, None,
                injector=RegisterFaultInjector(trial.spec),
            )
            ref = _reference(campaign, RegisterFaultInjector(trial.spec))
            assert canonical(trial) == canonical(full)
            assert (trial.value, trial.cycles) == (ref.value, ref.cycles)
            assert trial.outcome is FaultOutcome.BENIGN
            checked += 1
        assert checked


class TestClonedModules:
    def test_clone_served_from_golden_cache_takes_hang_shortcut(
        self, monkeypatch
    ):
        # A clone with the same printed IR, after the original ran
        # golden.  Its trials must run the clone's own blocks, whose code
        # cache holds the loop proofs: every hang ends in closed form.
        original = build_program("dot")
        args = PROGRAMS["dot"].default_args
        run_golden(_campaign(original, "dot", args))
        clone = parse_module(print_module(original), name="dot")
        assert clone is not original

        proofs = []
        spins = CountedLoop.spins

        def recording(self, env, passes):
            proofs.append(spins(self, env, passes))
            return proofs[-1]

        monkeypatch.setattr(CountedLoop, "spins", recording)
        result = run_campaign(
            _campaign(clone, "dot", args, n_trials=300), seed=17
        )
        hangs = [t for t in result.trials if t.outcome is FaultOutcome.HANG]
        assert hangs
        assert sum(proofs) == len(hangs)
        assert result.golden.status is ExecutionStatus.OK
