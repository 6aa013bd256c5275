"""Protected-execution runtime: instrumentation + placement cost model.

:class:`ProtectedProgram` bundles a program with a protection level: it
instruments a clone, verifies the instrumented program still computes the
golden output, measures cycle overhead, and runs fault-injection campaigns.

:func:`placement_overhead_cycles` models the trade-off the paper discusses
for *where* the reference monitor runs (sect. 4.1): "If we run both the
monitor and the program in parallel, we will not need to record state
transitions while running the full program.  However, if we run the monitor
after the full program, we minimize the overhead from context switching and
IPC needed when running the program."
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.core.dmr.critical import CriticalPlan
from repro.core.dmr.instrument import instrument_module
from repro.core.dmr.levels import ProtectionLevel
from repro.errors import ConfigError
from repro.faults.campaign import Campaign, CampaignResult, run_campaign
from repro.faults.model import FaultTarget
from repro.ir.costmodel import CORTEX_A53, CostModel
from repro.ir.interp import ExecutionResult, Interpreter
from repro.ir.module import Module


class MonitorPlacement(enum.Enum):
    """Where the reference monitor executes relative to the program."""

    INLINE = "inline"      # instrumentation interleaved in the program
    PARALLEL = "parallel"  # monitor on a second core, IPC sync per check
    POSTHOC = "posthoc"    # record transitions, validate afterwards


@dataclass(frozen=True)
class PlacementCost:
    """Cycle costs of one monitor placement.

    Attributes:
        wall_cycles: critical-path cycles (what latency-bound missions see).
        energy_cycles: total cycles across cores (what power/thermal-bound
            missions see — the paper's primary constraint).
    """

    wall_cycles: float
    energy_cycles: float


def placement_overhead_cycles(
    baseline_cycles: float,
    monitor_cycles: float,
    n_checks: int,
    placement: MonitorPlacement,
    ipc_sync_cycles: int = 200,
    checks_per_epoch: int = 64,
    record_cycles: int = 6,
) -> PlacementCost:
    """Estimate cycle costs for a monitor placement.

    ``monitor_cycles`` is the cost of the replicated instructions alone
    (instrumented-minus-baseline for the inline build).  A parallel monitor
    streams checked values through a shared queue and synchronizes once per
    epoch of ``checks_per_epoch`` checks (per-check synchronization would
    be ruinous); it hides the monitor's latency behind the program but
    burns a second core.  Post-hoc placement pays a cheap in-memory record
    per check during the run and the full monitor cost afterwards, serially.
    """
    if placement is MonitorPlacement.INLINE:
        wall = baseline_cycles + monitor_cycles
        return PlacementCost(wall_cycles=wall, energy_cycles=wall)
    if placement is MonitorPlacement.PARALLEL:
        epochs = -(-n_checks // checks_per_epoch)  # ceil division
        sync = epochs * ipc_sync_cycles
        record = n_checks * record_cycles  # enqueue into the shared queue
        wall = max(baseline_cycles + record, monitor_cycles) + sync
        return PlacementCost(
            wall_cycles=wall,
            energy_cycles=(
                baseline_cycles + record + monitor_cycles + 2 * sync
            ),
        )
    if placement is MonitorPlacement.POSTHOC:
        record = n_checks * record_cycles
        wall = baseline_cycles + record + monitor_cycles
        return PlacementCost(wall_cycles=wall, energy_cycles=wall)
    raise ConfigError(f"unknown placement {placement}")


class ProtectedProgram:
    """A program plus a tunable-DMR protection level.

    Attributes:
        baseline: the unprotected module.
        module: the instrumented module.
        plans: per-function instrumentation plans.
        level: the protection level applied.
    """

    def __init__(
        self,
        baseline: Module,
        func_name: str,
        level: ProtectionLevel,
        cost_model: CostModel = CORTEX_A53,
        fuel: int = 5_000_000,
    ) -> None:
        self.baseline = baseline
        self.func_name = func_name
        self.level = level
        self.cost_model = cost_model
        self.fuel = fuel
        self.module, self.plans = instrument_module(baseline, level)

    @property
    def plan(self) -> CriticalPlan:
        return self.plans[self.func_name]

    def run(self, args: tuple[int | float, ...]) -> ExecutionResult:
        """Execute the protected program (no faults)."""
        interp = Interpreter(
            self.module, cost_model=self.cost_model, fuel=self.fuel
        )
        return interp.run(self.func_name, list(args))

    def run_baseline(self, args: tuple[int | float, ...]) -> ExecutionResult:
        """Execute the unprotected baseline."""
        interp = Interpreter(
            self.baseline, cost_model=self.cost_model, fuel=self.fuel
        )
        return interp.run(self.func_name, list(args))

    def overhead(self, args: tuple[int | float, ...]) -> float:
        """Cycle overhead factor: protected / baseline (1.0 = free).

        Also asserts output equivalence — instrumentation must never change
        the program's result.
        """
        base = self.run_baseline(args)
        prot = self.run(args)
        if not (base.ok and prot.ok):
            raise ConfigError(
                f"overhead measurement runs failed: baseline="
                f"{base.status.value}, protected={prot.status.value} "
                f"({prot.trap_reason})"
            )
        base_v, prot_v = base.value, prot.value
        equal = base_v == prot_v or (
            isinstance(base_v, float)
            and isinstance(prot_v, float)
            and np.isnan(base_v)
            and np.isnan(prot_v)
        )
        if not equal:
            raise ConfigError(
                f"instrumentation changed the output: {base_v} -> {prot_v}"
            )
        if base.cycles == 0:
            return 1.0
        return prot.cycles / base.cycles

    def campaign(
        self,
        args: tuple[int | float, ...],
        n_trials: int = 200,
        target: FaultTarget = FaultTarget.REGISTER,
        sdc_tolerance: float = 0.0,
        seed: int | None = None,
    ) -> CampaignResult:
        """Fault-injection campaign against the protected program."""
        return run_campaign(
            Campaign(
                module=self.module,
                func_name=self.func_name,
                args=args,
                n_trials=n_trials,
                target=target,
                sdc_tolerance=sdc_tolerance,
                fuel=self.fuel,
                cost_model=self.cost_model,
            ),
            seed=seed,
        )
