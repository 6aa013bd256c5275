"""Supervised execution: turn detections into survivals and measure it.

A supervised campaign replays the library's fault-injection methodology
with a flight-software supervisor in the loop.  Every trial runs with
three step hooks chained: the fault injector, a periodic checksum-verified
checkpoint taker, and a watchdog whose budget is a small multiple of the
golden run's dynamic instruction count, spent one tick per body
instruction (step hooks never see phis).  When a trial ends in CRASH,
HANG, or DETECTED — the externally observable failures; silent
corruption is the DMR layer's problem — the supervisor climbs the
escalation ladder until an attempt delivers a correct output or the
ladder is exhausted, charging every attempt's cycles and backoff to the
trial's recovery bill.

Attempt acceptance uses the campaign's golden value as an oracle.  On a
real spacecraft the oracle is an application-level acceptance test (a
range check, a residual bound, a duplicate computation); the campaign
stands in the stronger check so the measured recovery rate is a *lower*
bound does not hide silently-wrong recoveries — an attempt that completes
cleanly with a wrong value is recorded as ``recovered_wrong``, never as a
success.

The aggregate statistics — recovery rate, mean recovery latency, wasted
cycles — are exactly the parameters the mission simulator previously
asserted as a flat ``reboot_downtime_s``; :class:`RecoveryParams` carries
them into :mod:`repro.sim.mission`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import ConfigError
from repro.faults.campaign import (
    Campaign,
    CampaignEmitter,
    begin_trial_span,
    classify_trial,
    emit_trial_events,
    end_trial_span,
    make_injector,
    plan_trials,
    run_plan,
    trial_fuel_for,
)
from repro.faults.outcomes import FaultOutcome, OutcomeCounts, TrialResult
from repro.ir.interp import ExecutionResult, Interpreter, module_code
from repro.recover.checkpoint import (
    CheckpointHook,
    CheckpointManager,
    resume_from_checkpoint,
)
from repro.recover.ladder import (
    EscalationLadder,
    FaultPersistence,
    LadderConfig,
    RecoveryRung,
)
from repro.obs.events import (
    LadderAttemptEvent,
    RecoveryDone,
    Tracer,
    TrialStart,
    WatchdogFire,
)
from repro.obs.spans import SpanEnd, SpanStart, span_id
from repro.recover.watchdog import InterpWatchdog, chain_step_hooks
from repro.rng import TrialStream

#: Failure outcomes a supervisor can observe and react to.
RECOVERABLE_OUTCOMES = frozenset({
    FaultOutcome.CRASH, FaultOutcome.HANG, FaultOutcome.DETECTED,
})


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervisor tuning.

    Attributes:
        checkpoint_interval: dynamic instructions between checkpoints.
        checkpoint_capacity: checkpoints retained (ring buffer).
        watchdog_margin: watchdog budget as a multiple of the golden
            run's dynamic instruction count — the hang detector's
            tightness.  The watchdog ticks once per body instruction,
            so a run bites at that many instructions plus the phis
            executed by then.
        ladder: escalation policy.
        persistence_probs: distribution of failure stickiness classes
            (see :class:`FaultPersistence`); models corruption outside
            the interpreter's reach (globals, program image, latches).
        storage_flip_prob: per-checkpoint chance that an SEU corrupted
            the stored checkpoint before it is needed (CRC catches it).
        restore_cycles: cost of verifying + loading one checkpoint.
        reboot_cycles: compute cost of a cold restart (image reload).
        power_cycle_s: outage seconds charged by a power cycle.
        clock_hz: converts cycles to seconds for latency reporting.
    """

    checkpoint_interval: int = 200
    checkpoint_capacity: int = 4
    watchdog_margin: float = 3.0
    ladder: LadderConfig = field(default_factory=LadderConfig)
    persistence_probs: dict[FaultPersistence, float] = field(
        default_factory=lambda: {
            FaultPersistence.TRANSIENT: 0.85,
            FaultPersistence.STATE: 0.09,
            FaultPersistence.IMAGE: 0.04,
            FaultPersistence.STUCK: 0.02,
        }
    )
    storage_flip_prob: float = 0.0
    restore_cycles: int = 500
    reboot_cycles: int = 50_000
    power_cycle_s: float = 30.0
    clock_hz: float = 1.0e9

    def __post_init__(self) -> None:
        if self.watchdog_margin < 1.0:
            raise ConfigError(
                f"watchdog margin must be >= 1, got {self.watchdog_margin}"
            )
        if not 0.0 <= self.storage_flip_prob <= 1.0:
            raise ConfigError("storage flip probability outside [0, 1]")
        total = sum(self.persistence_probs.values())
        if total <= 0 or abs(total - 1.0) > 1e-9:
            raise ConfigError(
                f"persistence probabilities must sum to 1, got {total}"
            )
        if self.clock_hz <= 0:
            raise ConfigError("clock rate must be positive")


@dataclass(frozen=True)
class AttemptRecord:
    """One executed recovery attempt.

    Attributes:
        rung: ladder stage tried.
        attempt: 0-based index within the rung.
        success: delivered the golden output.
        cycles: compute spent by the attempt (mechanism + penalties).
        backoff_s: delay charged before the attempt.
        latency_s: full latency of the attempt — backoff, outage and
            compute at the configured clock.
    """

    rung: RecoveryRung
    attempt: int
    success: bool
    cycles: int
    backoff_s: float
    latency_s: float = 0.0


@dataclass
class RecoveryRecord:
    """Full recovery story of one failed trial.

    Attributes:
        outcome: the initial failure classification.
        persistence: drawn stickiness class of the root cause.
        attempts: every ladder attempt executed, in order.
        recovered: a rung delivered the correct output.
        recovered_wrong: an attempt completed cleanly with a wrong value
            (counted as a failure; the residual-SDC risk of recovery).
        recovered_rung: the rung that succeeded (None if exhausted).
        faulty_cycles: cycles burned by the original failed run.
        recovery_cycles: cycles spent across all recovery attempts.
        wasted_cycles: total spent minus one useful task execution.
        recovery_latency_s: failure-to-recovery wall time (attempt
            cycles at the configured clock, plus backoffs and outages).
        checkpoints_taken: checkpoints captured during the faulty run.
        checkpoint_resumed_instructions: progress of the checkpoint a
            successful rollback resumed from (None otherwise).
    """

    outcome: FaultOutcome
    persistence: FaultPersistence
    attempts: list[AttemptRecord] = field(default_factory=list)
    recovered: bool = False
    recovered_wrong: bool = False
    recovered_rung: RecoveryRung | None = None
    faulty_cycles: int = 0
    recovery_cycles: int = 0
    wasted_cycles: int = 0
    recovery_latency_s: float = 0.0
    checkpoints_taken: int = 0
    checkpoint_resumed_instructions: int | None = None


@dataclass(frozen=True)
class RecoveryParams:
    """Supervisor-derived recovery parameters for the mission simulator.

    Replaces the flat ``reboot_downtime_s`` charge: each recoverable
    compute failure costs ``mean_downtime_s`` and succeeds with
    probability ``success_frac``; failures of recovery charge
    ``unrecovered_downtime_s`` (a full reboot), and a ``residual_sdc_frac``
    slice of recoveries delivers a wrong output anyway.
    """

    mean_downtime_s: float = 1.0
    success_frac: float = 0.95
    residual_sdc_frac: float = 0.0
    unrecovered_downtime_s: float = 30.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.success_frac <= 1.0:
            raise ConfigError("recovery success fraction outside [0, 1]")
        if not 0.0 <= self.residual_sdc_frac <= 1.0:
            raise ConfigError("residual SDC fraction outside [0, 1]")


@dataclass
class SupervisedCampaignResult:
    """A campaign's outcomes plus the supervisor's recovery ledger."""

    golden: ExecutionResult
    counts: OutcomeCounts
    trials: list[TrialResult]
    records: list[RecoveryRecord | None]
    config: SupervisorConfig

    @property
    def failure_records(self) -> list[RecoveryRecord]:
        return [r for r in self.records if r is not None]

    @property
    def n_failures(self) -> int:
        return len(self.failure_records)

    @property
    def n_recovered(self) -> int:
        return sum(r.recovered for r in self.failure_records)

    @property
    def recovery_rate(self) -> float:
        """Fraction of observable failures recovered to a correct output."""
        if self.n_failures == 0:
            return 1.0
        return self.n_recovered / self.n_failures

    @property
    def mean_recovery_latency_s(self) -> float:
        recs = [r for r in self.failure_records if r.recovered]
        if not recs:
            return 0.0
        return float(np.mean([r.recovery_latency_s for r in recs]))

    @property
    def mean_wasted_cycles(self) -> float:
        recs = self.failure_records
        if not recs:
            return 0.0
        return float(np.mean([r.wasted_cycles for r in recs]))

    @property
    def wasted_cycle_overhead(self) -> float:
        """Wasted cycles across all trials, relative to the useful work."""
        useful = self.golden.cycles * max(1, len(self.trials))
        wasted = sum(r.wasted_cycles for r in self.failure_records)
        return wasted / useful

    def rung_histogram(self) -> dict[RecoveryRung, int]:
        """How often each rung delivered the recovery."""
        hist = {rung: 0 for rung in RecoveryRung}
        for rec in self.failure_records:
            if rec.recovered_rung is not None:
                hist[rec.recovered_rung] += 1
        return hist

    def recovery_params(self) -> RecoveryParams:
        """Distill the ledger into mission-simulator parameters."""
        recs = self.failure_records
        if not recs:
            return RecoveryParams()
        wrong = sum(r.recovered_wrong for r in recs)
        return RecoveryParams(
            mean_downtime_s=self.mean_recovery_latency_s,
            success_frac=self.recovery_rate,
            residual_sdc_frac=wrong / len(recs),
            unrecovered_downtime_s=self.config.power_cycle_s,
        )


class Supervisor:
    """Drives one task through supervised execution and recovery.

    Bound to a campaign (module, entry point, args, cost model) and its
    golden run; :meth:`run_trial` executes one faulted run and, on an
    observable failure, :meth:`recover` climbs the escalation ladder.
    """

    def __init__(
        self,
        campaign: Campaign,
        golden: ExecutionResult,
        config: SupervisorConfig = SupervisorConfig(),
    ) -> None:
        self.campaign = campaign
        self.golden = golden
        self.config = config
        # The module's shared compiled blocks, which the campaign's golden
        # lookup checked: every trial, clean re-run and resume runs them.
        self.code_cache = module_code(campaign.module, campaign.cost_model)
        self.ladder = EscalationLadder(config.ladder)
        self.watchdog_budget = max(
            1, int(golden.instructions * config.watchdog_margin)
        )
        self._persistence_classes = sorted(
            config.persistence_probs, key=lambda p: p.value
        )
        self._persistence_probs = np.array([
            config.persistence_probs[p] for p in self._persistence_classes
        ])

    # -- trial execution -------------------------------------------------------

    def run_trial(
        self,
        trial_rng: TrialStream | np.random.Generator,
        tracer: Tracer | None = None,
        trial_index: int = 0,
        span_root: str = "",
    ) -> tuple[TrialResult, RecoveryRecord | None]:
        """One supervised trial: inject, classify, recover if observable.

        The fault is drawn from ``trial_rng`` as an unsupervised trial
        draws it.  Recovery's storage-fault draws continue from where the
        fault's left off, on a numpy Generator: a trial stream hands its
        position to one (:meth:`~repro.rng.TrialStream.generator`).

        Traced, it emits an unsupervised trial's events with checkpoint
        and watchdog events interleaved, then one event per ladder rung
        climbed and the recovery verdict; a ``span_root`` brackets the
        trial and each attempt with deterministic spans.
        """
        trial_span = ""
        if tracer is not None:
            if span_root:
                trial_span = begin_trial_span(tracer, span_root, trial_index)
            tracer.emit(TrialStart(trial=trial_index))
        campaign, golden = self.campaign, self.golden
        injector = make_injector(campaign, golden, trial_rng)
        manager = CheckpointManager(self.config.checkpoint_capacity)
        watchdog = InterpWatchdog(self.watchdog_budget)
        hooks = chain_step_hooks(
            injector,
            CheckpointHook(
                manager, self.config.checkpoint_interval,
                tracer=tracer, trial_index=trial_index,
            ),
            watchdog,
        )
        interp = Interpreter(
            campaign.module,
            cost_model=campaign.cost_model,
            fuel=trial_fuel_for(campaign, golden),
            step_hook=hooks,
            code_cache=self.code_cache,
        )
        result = interp.run(campaign.func_name, list(campaign.args))
        if tracer is not None and watchdog.bites > 0:
            tracer.emit(WatchdogFire(
                trial=trial_index, budget=watchdog.budget
            ))
        trial = classify_trial(campaign, golden, injector, result)
        if tracer is not None:
            emit_trial_events(tracer, trial_index, trial, fired=injector.fired)
        record = None
        if trial.outcome in RECOVERABLE_OUTCOMES:
            if isinstance(trial_rng, TrialStream):
                trial_rng = trial_rng.generator()
            record = self.recover(
                trial.outcome, result, manager, trial_rng,
                tracer=tracer, trial_index=trial_index, span=trial_span,
            )
            trial = replace(
                trial,
                recovery_latency_s=record.recovery_latency_s,
                attempt_latencies_s=tuple(
                    a.latency_s for a in record.attempts
                ),
                backoff_charged_s=sum(a.backoff_s for a in record.attempts),
            )
        if trial_span:
            end_trial_span(tracer, trial_span, trial)
        return trial, record

    # -- recovery --------------------------------------------------------------

    def recover(
        self,
        outcome: FaultOutcome,
        failed: ExecutionResult,
        manager: CheckpointManager,
        rng: np.random.Generator,
        tracer: Tracer | None = None,
        trial_index: int = 0,
        span: str = "",
    ) -> RecoveryRecord:
        """Climb the escalation ladder until a correct output or exhaustion.

        With a trial ``span``, each ladder attempt is bracketed by a
        deterministic child span (``attempt`` #k under the trial) so the
        causal chain campaign → trial → attempt is reconstructible from
        the trace alone.
        """
        cfg = self.config
        # Storage SEUs strike retained checkpoints while they sit in RAM.
        if cfg.storage_flip_prob > 0.0:
            for index in range(len(manager)):
                if rng.random() < cfg.storage_flip_prob:
                    manager.flip_payload_bit(index, int(rng.integers(1 << 16)))
        persistence = self._persistence_classes[
            int(rng.choice(
                len(self._persistence_classes), p=self._persistence_probs
            ))
        ]
        record = RecoveryRecord(
            outcome=outcome,
            persistence=persistence,
            faulty_cycles=failed.cycles,
            checkpoints_taken=manager.taken,
        )
        rollback_skip = 0
        for planned in self.ladder.plan():
            if planned.rung is RecoveryRung.ROLLBACK:
                success, cycles, outage_s, resumed_at = self._try_rollback(
                    manager, rollback_skip, persistence
                )
                rollback_skip += 1
            else:
                success, cycles, outage_s = self._try_restart(
                    planned.rung, persistence
                )
                resumed_at = None
            attempt_latency_s = (
                planned.backoff_s + outage_s + cycles / cfg.clock_hz
            )
            record.attempts.append(AttemptRecord(
                rung=planned.rung,
                attempt=planned.attempt,
                success=success,
                cycles=cycles,
                backoff_s=planned.backoff_s,
                latency_s=attempt_latency_s,
            ))
            record.recovery_cycles += cycles
            record.recovery_latency_s += attempt_latency_s
            if tracer is not None:
                attempt_span = ""
                if span:
                    attempt_index = len(record.attempts) - 1
                    attempt_span = span_id(span, "attempt", attempt_index)
                    tracer.emit(SpanStart(
                        span=attempt_span, parent=span, name="attempt",
                        index=attempt_index, detail=planned.rung.value,
                    ))
                tracer.emit(LadderAttemptEvent(
                    trial=trial_index,
                    rung=planned.rung.value,
                    attempt=planned.attempt,
                    success=success,
                    cycles=cycles,
                    backoff_s=planned.backoff_s,
                    latency_s=attempt_latency_s,
                ))
                if attempt_span:
                    tracer.emit(SpanEnd(
                        span=attempt_span,
                        status="ok" if success else "failed",
                        cycles=cycles,
                    ))
            if success:
                record.recovered = True
                record.recovered_rung = planned.rung
                record.checkpoint_resumed_instructions = resumed_at
                break
        total = record.faulty_cycles + record.recovery_cycles
        if record.recovered:
            record.wasted_cycles = max(0, total - self.golden.cycles)
        else:
            record.wasted_cycles = total
        if tracer is not None:
            tracer.emit(RecoveryDone(
                trial=trial_index,
                outcome=outcome.value,
                recovered=record.recovered,
                rung=(
                    record.recovered_rung.value
                    if record.recovered_rung is not None else None
                ),
                attempts=len(record.attempts),
                latency_s=record.recovery_latency_s,
                wasted_cycles=record.wasted_cycles,
                persistence=record.persistence.value,
            ))
        return record

    def _clean_run(self) -> ExecutionResult:
        """Re-execute the task from scratch under the watchdog."""
        interp = Interpreter(
            self.campaign.module,
            cost_model=self.campaign.cost_model,
            fuel=self.campaign.fuel,
            step_hook=InterpWatchdog(self.watchdog_budget),
            code_cache=self.code_cache,
        )
        return interp.run(self.campaign.func_name, list(self.campaign.args))

    def _accepts(self, result: ExecutionResult) -> bool:
        """Oracle acceptance: correct output (see module docstring)."""
        if not result.ok:
            return False
        value, golden = result.value, self.golden.value
        if isinstance(value, float) and isinstance(golden, float):
            if np.isnan(value) and np.isnan(golden):
                return True
        return value == golden

    def _try_restart(
        self, rung: RecoveryRung, persistence: FaultPersistence
    ) -> tuple[bool, int, float]:
        """RETRY / COLD_RESTART / POWER_CYCLE: a clean re-execution.

        Returns (success, cycles, outage seconds).  When the persistence
        class is not cleared by this rung, the modeled external corruption
        re-manifests: the re-run's work is charged but its output is
        rejected (no interpreter run is needed to know it fails).
        """
        cfg = self.config
        penalty = 0
        outage_s = 0.0
        if rung is RecoveryRung.COLD_RESTART:
            penalty = cfg.reboot_cycles
        elif rung is RecoveryRung.POWER_CYCLE:
            penalty = cfg.reboot_cycles
            outage_s = cfg.power_cycle_s
        if not persistence.cleared_by(rung):
            return False, self.golden.cycles + penalty, outage_s
        result = self._clean_run()
        return self._accepts(result), result.cycles + penalty, outage_s

    def _try_rollback(
        self,
        manager: CheckpointManager,
        skip: int,
        persistence: FaultPersistence,
    ) -> tuple[bool, int, float, int | None]:
        """Restore the newest good checkpoint (skipping ``skip``) and resume.

        The mechanism is real: the interpreter resumes from the verified
        checkpoint and the resumed output is checked against the oracle.
        A checkpoint captured after the fault landed carries the corruption
        and reproduces the failure (or a wrong value) — that is exactly the
        case the ladder's next rung exists for.
        """
        cfg = self.config
        ckpt = manager.latest_good(skip=skip)
        if ckpt is None:
            return False, cfg.restore_cycles, 0.0, None
        result = resume_from_checkpoint(
            self.campaign.module,
            ckpt,
            cost_model=self.campaign.cost_model,
            fuel=self.campaign.fuel,
            step_hook=InterpWatchdog(self.watchdog_budget),
            code_cache=self.code_cache,
        )
        # Resumed counters continue from the checkpoint, so the attempt's
        # own work is the delta; a failed resume still pays what it ran.
        cycles = cfg.restore_cycles + max(0, result.cycles - ckpt.cycles)
        if not persistence.cleared_by(RecoveryRung.ROLLBACK):
            return False, cycles, 0.0, None
        if not self._accepts(result):
            return False, cycles, 0.0, None
        return True, cycles, 0.0, ckpt.instructions


def run_supervised_campaign(
    campaign: Campaign,
    config: SupervisorConfig = SupervisorConfig(),
    seed: int | np.random.Generator | None = None,
    workers: int | None = None,
    tracer: Tracer | None = None,
    trace_spans: bool = False,
) -> SupervisedCampaignResult:
    """Execute ``campaign`` with the supervisor in the loop.

    The plain plan run by the campaign pipeline, whose executor hands each
    trial's own child of ``seed`` to :meth:`Supervisor.run_trial` under
    ``config``; byte-identical at any worker count, traced or not
    (``trace_spans`` adds the campaign → trial → attempt span hierarchy).
    """
    emitter = CampaignEmitter(tracer, campaign, seed, trace_spans)
    result, records = run_plan(
        campaign, lambda _golden: plan_trials(campaign, seed), emitter,
        workers, supervisor_config=config,
    )
    return SupervisedCampaignResult(
        result.golden, result.counts, result.trials, records, config
    )
