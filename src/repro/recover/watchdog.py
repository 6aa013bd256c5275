"""Heartbeat / fuel-based hang detection for both execution substrates.

The interpreter's global fuel budget is deliberately generous (a campaign
must never misclassify a slow-but-terminating run), which makes it a slow
hang detector: a hung trial burns the whole budget before anyone notices.
A watchdog is the flight-software answer — arm it with a *task-specific*
budget (golden instruction count times a small margin) and it bites long
before the generic fuel runs out, cutting the cycles wasted per hang by
an order of magnitude.  The supervisor re-arms ("kicks") the watchdog at
every recovery attempt.
"""

from __future__ import annotations

from repro.errors import ConfigError, WatchdogTimeout
from repro.ir.instructions import Instruction
from repro.ir.interp import Frame, Interpreter
from repro.machine.cpu import Machine
from repro.machine.isa import MachInstr


class Watchdog:
    """Core countdown: ``kick`` to rearm, ``tick`` to spend budget.

    Attributes:
        budget: ticks allowed between kicks.
        bites: times the watchdog expired over its lifetime.
    """

    def __init__(self, budget: int) -> None:
        if budget < 1:
            raise ConfigError(f"watchdog budget must be >= 1, got {budget}")
        self.budget = budget
        self.remaining = budget
        self.bites = 0

    def kick(self, budget: int | None = None) -> None:
        """Rearm the countdown (optionally with a new budget)."""
        if budget is not None:
            if budget < 1:
                raise ConfigError(
                    f"watchdog budget must be >= 1, got {budget}"
                )
            self.budget = budget
        self.remaining = self.budget

    def tick(self, n: int = 1) -> None:
        """Consume ``n`` ticks; raises :class:`WatchdogTimeout` on expiry."""
        self.remaining -= n
        if self.remaining < 0:
            self.bites += 1
            raise WatchdogTimeout(
                f"watchdog expired after {self.budget} ticks without a kick"
            )


class InterpWatchdog(Watchdog):
    """Interpreter ``step_hook``: one tick per body instruction.

    Step hooks never see phis, so a run bites at dynamic instruction
    ``budget`` plus the phis executed by then, an index not known in
    advance: the hook may act at every index (``next_index`` 0).
    """

    next_index = 0

    def __call__(
        self,
        interp: Interpreter,
        frame: Frame,
        instr: Instruction,
        dynamic_index: int,
    ) -> None:
        self.tick()


class MachineWatchdog(Watchdog):
    """Machine ``step_hook``: one tick per executed instruction."""

    def __call__(
        self, machine: Machine, instr: MachInstr, step_index: int
    ) -> None:
        self.tick()


def chain_step_hooks(*hooks):
    """Compose step hooks left-to-right; ``None`` entries are dropped.

    Both substrates accept a single ``step_hook`` callable; the supervisor
    needs several at once (fault injector, checkpoint taker, watchdog).
    A chain may act at every index (``next_index`` 0); the supervisor's
    holds a watchdog, which does.
    """
    live = [h for h in hooks if h is not None]
    if not live:
        return None
    if len(live) == 1:
        return live[0]

    def chained(*args) -> None:
        for hook in live:
            hook(*args)

    chained.next_index = 0
    return chained
