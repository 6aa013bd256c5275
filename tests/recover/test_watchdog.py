"""Watchdog hang detection on the interpreter and the machine."""

import pytest

from repro.errors import ConfigError, MachineError, WatchdogTimeout
from repro.ir.builder import IRBuilder
from repro.ir.interp import ExecutionStatus, Interpreter
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.parser import parse_module
from repro.ir.refinterp import ReferenceInterpreter
from repro.ir.types import INT64
from repro.machine.asm import assemble
from repro.machine.cpu import Machine, RunOutcome
from repro.machine.monitor import Monitor
from repro.recover.watchdog import (
    InterpWatchdog,
    MachineWatchdog,
    Watchdog,
    chain_step_hooks,
)
from repro.workloads.irprograms import PROGRAMS, build_program


#: entry jumps into a loop of 2 phis and 4 body instructions.
PHI_LOOP = """
func @spin(%n: i64) -> i64 {
^entry:
  jmp ^loop
^loop:
  %i = phi i64 [0, ^entry], [%i2, ^loop]
  %s = phi i64 [0, ^entry], [%s2, ^loop]
  %i2 = add i64 %i, 1
  %s2 = add i64 %s, %i
  %c = icmp lt i64 %i2, %n
  br %c, ^loop, ^done
^done:
  ret i64 %s2
}
"""


def build_hang_module() -> Module:
    """An IR function that spins forever: the hang every watchdog exists for."""
    module = Module("hang")
    f = module.add_function(Function("spin", [("n", INT64)], INT64))
    b = IRBuilder(f)
    entry = f.add_block("entry")
    loop = f.add_block("loop")
    b.set_block(entry)
    b.jmp(loop)
    b.set_block(loop)
    b.jmp(loop)
    return module


class TestWatchdogCore:
    def test_counts_down_and_bites(self):
        dog = Watchdog(budget=3)
        dog.tick()
        dog.tick()
        assert dog.remaining == 1
        dog.tick()  # spends the last tick; only the next one bites
        with pytest.raises(WatchdogTimeout):
            dog.tick()
        assert dog.bites == 1

    def test_kick_rearms(self):
        dog = Watchdog(budget=2)
        dog.tick()
        dog.kick()
        assert dog.remaining == 2
        dog.kick(10)
        assert dog.budget == 10
        assert dog.remaining == 10

    def test_bad_budget_rejected(self):
        with pytest.raises(ConfigError):
            Watchdog(budget=0)

    def test_chain_step_hooks_composes_and_drops_none(self):
        calls = []
        hook = chain_step_hooks(
            None,
            lambda *a: calls.append("a"),
            None,
            lambda *a: calls.append("b"),
        )
        hook(object(), object(), object(), 0)
        assert calls == ["a", "b"]
        assert chain_step_hooks(None, None) is None
        single = lambda *a: None  # noqa: E731
        assert chain_step_hooks(single, None) is single


class TestInterpWatchdog:
    def test_watchdog_catches_infinite_loop(self):
        module = build_hang_module()
        dog = InterpWatchdog(budget=500)
        interp = Interpreter(module, fuel=10**9, step_hook=dog)
        result = interp.run("spin", [0])
        assert result.status is ExecutionStatus.HANG
        assert "watchdog" in result.trap_reason.lower()
        assert dog.bites == 1
        # The watchdog cut the run off at its budget, nine decades before
        # the generous trial fuel would have.
        assert result.instructions <= 501

    def test_healthy_run_unharmed(self):
        name = "fib"
        module = build_program(name)
        args = list(PROGRAMS[name].default_args)
        bare = Interpreter(module).run(name, args)
        dog = InterpWatchdog(budget=bare.instructions * 3)
        watched = Interpreter(module, step_hook=dog).run(name, args)
        assert watched.ok
        assert watched.value == bare.value
        assert dog.bites == 0

    @pytest.mark.parametrize("budget", [1, 37, 500])
    @pytest.mark.parametrize("interp_cls", [Interpreter, ReferenceInterpreter])
    def test_bites_at_budget_plus_the_phis_executed(self, budget, interp_cls):
        # Step hooks never see phis: the watchdog ticks once per body
        # instruction.  The entry's jmp is tick 1 and pass j holds ticks
        # 4j - 2 .. 4j + 1, so tick budget + 1 bites in pass
        # ceil(budget / 4), after its 2 phis ran and before the biting
        # instruction counts: a budget of 500 bites at instruction 750.
        dog = InterpWatchdog(budget)
        result = interp_cls(
            parse_module(PHI_LOOP), fuel=10**9, step_hook=dog
        ).run("spin", [10**9])
        assert result.status is ExecutionStatus.HANG
        assert "watchdog" in result.trap_reason.lower()
        phis = 2 * -(-budget // 4)
        assert result.instructions == budget + phis

    def test_tight_budget_is_cheaper_than_fuel(self):
        # The whole point of the watchdog: a hang costs ~3x the golden
        # instruction count, not the 50x campaign trial fuel.
        module = build_hang_module()
        golden_instructions = 100
        dog = InterpWatchdog(budget=golden_instructions * 3)
        result = Interpreter(
            module, fuel=golden_instructions * 50, step_hook=dog
        ).run("spin", [0])
        assert result.status is ExecutionStatus.HANG
        assert result.instructions < golden_instructions * 50 / 10


HANG_ASM = """
    li r1, 0
loop:
    addi r1, r1, 1
    jmp loop
"""


class TestMachineWatchdog:
    def test_machine_watchdog_trips_run(self):
        dog = MachineWatchdog(budget=64)
        machine = Machine(assemble(HANG_ASM), step_hook=dog)
        outcome = machine.run(fuel=1_000_000)
        assert outcome is RunOutcome.FUEL_EXHAUSTED
        assert "watchdog" in machine.trap_reason.lower()
        assert machine.state.steps <= 65

    def test_monitor_watchdog_commands(self):
        monitor = Monitor(Machine(assemble(HANG_ASM)))
        assert "disarmed" in monitor.execute("watchdog status")
        out = monitor.execute("watchdog arm 32")
        assert "budget=32" in out
        outcome = monitor.machine.run(fuel=10_000)
        assert outcome is RunOutcome.FUEL_EXHAUSTED
        assert monitor.watchdog.bites == 1
        status = monitor.execute("watchdog status")
        assert "bites=1" in status
        monitor.execute("watchdog kick 64")
        assert monitor.watchdog.remaining == 64
        monitor.execute("watchdog disarm")
        assert monitor.watchdog is None
        assert monitor.machine.step_hook is None

    def test_monitor_kick_requires_armed(self):
        monitor = Monitor(Machine(assemble(HANG_ASM)))
        with pytest.raises(MachineError):
            monitor.execute("watchdog kick")

    def test_monitor_watchdog_preserves_base_hook(self):
        seen = []
        machine = Machine(
            assemble(HANG_ASM),
            step_hook=lambda m, i, s: seen.append(s),
        )
        monitor = Monitor(machine)
        monitor.execute("watchdog arm 16")
        machine.run(fuel=1_000)
        assert len(seen) > 0  # base hook still fired
        monitor.execute("watchdog disarm")
        assert machine.step_hook is not None  # base hook restored
