"""Fault-injection campaigns: one plan → execute → emit pipeline.

A campaign fixes a program and its inputs, takes one golden (fault-free)
run, then repeatedly re-executes with a single random SEU — uniform over
dynamic instruction index, live register (or heap cell) and bit — and
classifies each outcome.  This reproduces the methodology of the paper's
QEMU experiments at the granularity it argues is sufficient: faults between
instructions (sect. 4.2).

Every campaign flavour runs through the same three stages (:func:`run_plan`):

* **plan** — one :class:`PlannedTrial` per trial, planned after the
  campaign's one golden lookup.  Plain campaigns give each trial its own
  child of the seed (:func:`plan_trials`): an exact
  :class:`~repro.rng.TrialStream` for an integer seed, a forked numpy
  Generator for a Generator seed; timeline campaigns draw their thinned
  arrivals, then fork their Generator the same way; pruned campaigns
  resolve every fault by lookup in the golden run's site table and mark
  the ones the module's masking report proves benign
  (:func:`prune_masked_trials`); supervised
  campaigns use the plain plan and hand a ``SupervisorConfig`` to
  :func:`run_plan`.
* **execute** — :func:`run_plan` runs every trial that is not pruned
  in this process, in plan order: through :func:`run_trial`, or through
  one :class:`~repro.recover.supervisor.Supervisor` built per campaign.
  Each trial emits its events straight to the campaign's tracer.
* **emit** — :class:`CampaignEmitter` writes the campaign's bounds and
  rebuilds each pruned trial's events in its place, so the traced
  stream is in trial order.

A campaign looks its golden run up once (:func:`run_golden`).  Each
module keeps one record (:func:`repro.ir.interp.module_record`) that
every campaign over it shares: its golden runs, each with the site
table the first pruned campaign over it records (:func:`golden_sites`),
its one compiled code (:func:`repro.ir.interp.module_code`), which the
golden run, the site-table recording and every trial run, and its one
masking report.  Pruned campaigns plan from the site table and the
report.  :func:`run_golden` checks that record against the module's
printed-IR fingerprint once per campaign.
Tracing only observes — it never draws from an RNG or mutates engine
state — so traced results are byte-identical to untraced ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.errors import FaultInjectionError
from repro.faults.model import FaultSpec, FaultTarget
from repro.faults.outcomes import FaultOutcome, OutcomeCounts, TrialResult, classify
from repro.faults.seu import (
    HeapFaultInjector, RegisterFaultInjector, SiteRecorder, SiteTable,
)
from repro.ir.costmodel import CORTEX_A53, CostModel
from repro.ir.interp import (
    ExecutionResult, ExecutionStatus, GoldenSnapshots, Interpreter,
    module_code, module_record,
)
from repro.ir.module import Module
from repro.ir.printer import module_fingerprint
from repro.obs.events import (
    BlockTransition,
    CampaignEnd,
    CampaignStart,
    GoldenCacheLookup,
    Injection,
    Tracer,
    TrialEnd,
    TrialStart,
)
from repro.obs.spans import ROOT, SpanEnd, SpanStart, campaign_root, span_id
from repro.perf.cache import GOLDEN_CACHE
from repro.rng import TrialStream, make_rng, trial_rngs


@dataclass
class Campaign:
    """Configuration of one fault-injection campaign.

    Attributes:
        module: module containing the program (possibly instrumented).
        func_name: entry function.
        args: arguments passed on every run.
        n_trials: number of injected faults.
        target: REGISTER or MEMORY faults.
        sdc_tolerance: relative output error treated as benign.
        fuel: instruction budget per run (hang detection).
        cost_model: cycle cost model used for overhead accounting.
    """

    module: Module
    func_name: str
    args: tuple[int | float, ...]
    n_trials: int = 200
    target: FaultTarget = FaultTarget.REGISTER
    sdc_tolerance: float = 0.0
    fuel: int = 2_000_000
    cost_model: CostModel = CORTEX_A53


@dataclass
class CampaignResult:
    """Outcome of a campaign.

    Attributes:
        golden: the fault-free reference run.
        counts: aggregated outcome tallies.
        trials: per-trial records.
        mean_faulty_cycles: average cycles across faulted runs.
    """

    golden: ExecutionResult
    counts: OutcomeCounts
    trials: list[TrialResult] = field(default_factory=list)

    @property
    def mean_faulty_cycles(self) -> float:
        if not self.trials:
            return 0.0
        return float(np.mean([t.cycles for t in self.trials]))


def rank_sites(campaign: Campaign) -> list[str]:
    """Register injection sites of ``campaign``, most vulnerable first.

    Bridges the static analyses into the injection engine: sites are the
    SSA value names :class:`repro.faults.seu.RegisterFaultInjector`
    resolves ``FaultSpec.location`` against, ordered by the ACE-style
    score of :func:`repro.analysis.vulnerability.analyze_function`.  Use
    it to spend a trial budget where flips are predicted to hurt most
    (targeted campaigns) instead of uniformly; E14 validates the ordering
    against empirical per-site harm.

    Imported lazily so the injection engine keeps working without the
    analysis package (e.g. in stripped-down deployments).
    """
    from repro.analysis.vulnerability import analyze_function

    func = campaign.module.function(campaign.func_name)
    report = analyze_function(func, campaign.cost_model)
    return [site.name for site in report.ranked()]


def run_golden(
    campaign: Campaign,
    use_cache: bool = True,
    tracer: Tracer | None = None,
) -> ExecutionResult:
    """The campaign's fault-free reference run (validated).

    Kept in the module's record (:func:`repro.ir.interp.module_record`),
    one run per entry point, args and cost model, and served to every
    later campaign over the same module object whose fuel covers the
    run's instruction count.  The record is first checked against the
    module's printed-IR fingerprint: this is the campaign's one check of
    everything derived from its module.  ``use_cache=False`` neither
    reads nor stores a run.  Each lookup counts a hit or a miss in
    :data:`repro.perf.cache.GOLDEN_CACHE`; with a tracer it is recorded
    as a :class:`GoldenCacheLookup` event.

    The run records its block-entry snapshot table as it goes
    (:class:`repro.ir.interp.GoldenSnapshots`, at most 65 points however
    long the run) and returns it as ``snapshots``.  Trials of the same
    module start at its latest point at or before their fault and end
    when their state rejoins golden's.
    """
    module = campaign.module
    record = module_record(module, module_fingerprint(module))
    # Args by repr: 0.0 == -0.0, yet 1.0 / %a tells them apart.
    key = (campaign.func_name, repr(tuple(campaign.args)), campaign.cost_model)
    if use_cache:
        golden = next((
            run for entry, run in record.golden
            if entry == key and run.instructions <= campaign.fuel
        ), None)
        hit = golden is not None
        if tracer is not None:
            tracer.emit(GoldenCacheLookup(
                hit=hit, instructions=golden.instructions if hit else 0,
            ))
        if hit:
            GOLDEN_CACHE.stats.hits += 1
            # A copy, so that no caller can change the stored run.
            return replace(golden, block_trace=list(golden.block_trace))
        GOLDEN_CACHE.stats.misses += 1
    golden_interp = Interpreter(
        module, cost_model=campaign.cost_model, fuel=campaign.fuel,
        code_cache=module_code(module, campaign.cost_model),
        snapshots=GoldenSnapshots(),
    )
    golden = golden_interp.run(campaign.func_name, list(campaign.args))
    if golden.status is ExecutionStatus.HANG:
        raise FaultInjectionError(
            f"golden run of @{campaign.func_name} exhausted the campaign "
            f"fuel of {campaign.fuel} before completing — every faulted "
            f"trial would be classified HANG; raise Campaign.fuel above "
            f"the program's dynamic instruction count"
        )
    if not golden.ok:
        raise FaultInjectionError(
            f"golden run of @{campaign.func_name} failed: "
            f"{golden.status.value} ({golden.trap_reason})"
        )
    if golden.instructions == 0:
        raise FaultInjectionError("golden run executed no instructions")
    if use_cache:
        record.golden.append(
            (key, replace(golden, block_trace=list(golden.block_trace)))
        )
    return golden


def trial_fuel_for(campaign: Campaign, golden: ExecutionResult) -> int:
    """Per-trial instruction budget derived from the golden run.

    A fault can turn a terminating program into one that never ends: a
    flipped high bit of a counted loop's bound asks for up to 2**62
    passes.  The budget is where such a run is declared hung, so it also
    decides the HANG record's ``cycles`` — everything charged up to the
    first instruction past the budget.  It is a generous multiple of the
    golden run, capped by the campaign's own fuel.

    The campaign's own fuel must cover the golden run: a budget below the
    golden instruction count would classify every trial as HANG (the
    fault-free path itself cannot finish), which is a configuration error,
    not a measurement.
    """
    if golden.instructions > campaign.fuel:
        raise FaultInjectionError(
            f"campaign fuel {campaign.fuel} is below the golden run's "
            f"{golden.instructions} dynamic instructions — every trial "
            f"would hang; raise Campaign.fuel"
        )
    return min(campaign.fuel, golden.instructions * 50 + 2_000)


def make_injector(
    campaign: Campaign,
    golden: ExecutionResult,
    trial_rng: TrialStream | np.random.Generator,
) -> RegisterFaultInjector | HeapFaultInjector:
    """Draw one trial's fault (uniform dynamic index) and build its injector.

    The injector keeps ``trial_rng`` for its site and bit draws.
    """
    index = int(trial_rng.integers(golden.instructions))
    spec = FaultSpec(target=campaign.target, dynamic_index=index)
    if campaign.target is FaultTarget.REGISTER:
        return RegisterFaultInjector(spec, seed=trial_rng)
    if campaign.target is FaultTarget.MEMORY:
        return HeapFaultInjector(spec, seed=trial_rng)
    raise FaultInjectionError(
        f"interpreter campaigns support REGISTER/MEMORY targets, "
        f"not {campaign.target}"
    )


def begin_trial_span(tracer: Tracer, span_root: str, index: int) -> str:
    """Open trial ``index``'s span under the campaign root."""
    span = span_id(span_root, "trial", index)
    tracer.emit(SpanStart(
        span=span, parent=span_root, name="trial", index=index
    ))
    return span


def end_trial_span(
    tracer: Tracer, span: str, trial: TrialResult
) -> None:
    """Close a trial span with the classified outcome and cycle cost."""
    tracer.emit(SpanEnd(
        span=span, status=trial.outcome.value, cycles=trial.cycles
    ))


def emit_trial_events(
    tracer: Tracer,
    trial_index: int,
    trial: TrialResult,
    fired: bool = True,
    pruned: bool = False,
) -> None:
    """Emit the injection + classification events of one finished trial.

    Shared by :func:`run_trial`, the supervisor and the emitter's pruned
    trials, so every flavour produces the same per-trial event sequence.
    """
    spec = trial.spec
    tracer.emit(Injection(
        trial=trial_index,
        target=spec.target.value,
        dynamic_index=spec.dynamic_index,
        location=spec.location,
        bit=spec.bit,
        fired=fired,
        pruned=pruned,
    ))
    tracer.emit(TrialEnd(
        trial=trial_index,
        outcome=trial.outcome.value,
        cycles=trial.cycles,
        rel_error=trial.rel_error,
    ))


def run_trial(
    campaign: Campaign,
    golden: ExecutionResult,
    trial_fuel: int,
    trial_rng: TrialStream | np.random.Generator | None,
    code_cache: dict | None = None,
    tracer: Tracer | None = None,
    trial_index: int = 0,
    trace_blocks: bool = False,
    span_root: str = "",
    injector: RegisterFaultInjector | HeapFaultInjector | None = None,
    snapshots: GoldenSnapshots | None = None,
) -> TrialResult:
    """Execute and classify one faulted trial.

    The trial body of every unsupervised campaign.  A tracer adds trial
    start / injection / end events (and per-block transitions when
    ``trace_blocks``) without touching the trial's RNG stream; a
    ``span_root`` brackets them with the trial's deterministic span.
    Pruned campaigns pass an ``injector`` whose spec the planner
    resolved; the trial then draws nothing and ``trial_rng`` may be
    None.  ``snapshots`` (golden's table, of the campaign's module) lets
    the trial start late and stop early unless it traces blocks; the
    record is the same either way.
    """
    trial_span = ""
    if tracer is not None:
        if span_root:
            trial_span = begin_trial_span(tracer, span_root, trial_index)
        tracer.emit(TrialStart(trial=trial_index))
    if injector is None:
        injector = make_injector(campaign, golden, trial_rng)
    interp = Interpreter(
        campaign.module,
        cost_model=campaign.cost_model,
        fuel=trial_fuel,
        record_trace=trace_blocks and tracer is not None,
        step_hook=injector,
        code_cache=code_cache,
        # The injector's ``next_index`` (its drawn index, None once
        # fired) lets the interpreter batch outside the injection
        # window, start at a golden snapshot and stop where the trial
        # rejoins golden.
        snapshots=snapshots,
    )
    result = interp.run(campaign.func_name, list(campaign.args))
    trial = classify_trial(campaign, golden, injector, result)
    if tracer is not None:
        for func, block in result.block_trace:
            tracer.emit(BlockTransition(func=func, block=block))
        emit_trial_events(tracer, trial_index, trial, fired=injector.fired)
        if trial_span:
            end_trial_span(tracer, trial_span, trial)
    return trial


def classify_trial(
    campaign: Campaign,
    golden: ExecutionResult,
    injector: RegisterFaultInjector | HeapFaultInjector,
    result: ExecutionResult,
) -> TrialResult:
    """Build the :class:`TrialResult` of one finished faulted execution.

    Shared by :func:`run_trial` and the supervisor so every flavour
    classifies identically.
    """
    outcome, rel_error = classify(
        result, golden.value, campaign.sdc_tolerance
    )
    if not injector.fired:
        # The fault never landed (e.g. MEMORY target but the program
        # allocated nothing).  Count it as benign: the particle missed.
        outcome, rel_error = FaultOutcome.BENIGN, 0.0
    return TrialResult(
        spec=injector.resolved or injector.spec,
        outcome=outcome,
        value=result.value,
        rel_error=rel_error,
        cycles=result.cycles,
    )


# -- plan ------------------------------------------------------------------------


@dataclass(frozen=True)
class PlannedTrial:
    """One trial of a campaign plan: the executor's work item.

    A planner fixes everything a trial's result depends on before any
    trial runs, so no trial's result depends on another's.

    Attributes:
        spec: the fault the pruning planner resolved (dynamic index =
            firing point, location and bit fixed; the bare request when
            it never fired).  None when the trial draws from ``rng``.
        fired: whether the fault lands at all.
        func, block, body_index: the firing point — function, block and
            index into ``block.body`` ("", "", -1 when unknown).
        mask_class: the masking verdict
            (:class:`repro.analysis.masking.MaskClass`), if analysed.
        pruned: the record can be rebuilt without execution
            (EXACT_BENIGN verdict, or the fault never fired).
        rng: the trial's own child of the campaign seed (plain and
            supervised plans): a :class:`~repro.rng.TrialStream` for an
            integer seed, a forked numpy Generator for a Generator seed.
            Both answer the ``integers`` draws a fault needs.
    """

    spec: FaultSpec | None = None
    fired: bool = True
    func: str = ""
    block: str = ""
    body_index: int = -1
    mask_class: "MaskClass | None" = None  # noqa: F821 - analysis import is lazy
    pruned: bool = False
    rng: TrialStream | np.random.Generator | None = field(
        default=None, compare=False, repr=False
    )


def plan_trials(
    campaign: Campaign, seed: int | np.random.Generator | None
) -> list[PlannedTrial]:
    """The plain plan: one child of ``seed`` per trial, nothing pruned.

    Children come from :func:`repro.rng.trial_rngs`, so trial *k* draws
    what numpy's ``spawn`` child *k* of the seed would.
    """
    return [
        PlannedTrial(rng=trial_rng)
        for trial_rng in trial_rngs(seed, campaign.n_trials)
    ]


# -- emit ------------------------------------------------------------------------


class CampaignEmitter:
    """The emit stage: a campaign's bounds and its pruned trials' events.

    :meth:`start` opens the campaign's root span (its id derives from the
    campaign identity and integer seed, see
    :func:`repro.obs.spans.campaign_root`).  Executed trials emit their
    own events as they run; pruned trials' are rebuilt here.  Without a
    tracer every method does nothing.
    """

    def __init__(
        self,
        tracer: Tracer | None,
        campaign: Campaign,
        seed: int | np.random.Generator | None,
        spans: bool = False,
    ) -> None:
        self.tracer = tracer
        self.campaign = campaign
        self.seed = seed
        self.root = ""
        if tracer is not None and spans:
            name, func = campaign.module.name, campaign.func_name
            self.root = campaign_root(name, func, seed, campaign.n_trials)

    def start(self, supervised: bool) -> None:
        if self.tracer is not None:
            campaign = self.campaign
            if self.root:
                self.tracer.emit(SpanStart(
                    span=self.root,
                    parent=ROOT,
                    name="campaign",
                    index=self.seed if isinstance(self.seed, int) else 0,
                    detail=f"{campaign.module.name}:@{campaign.func_name}",
                ))
            self.tracer.emit(CampaignStart(
                program=campaign.module.name,
                func=campaign.func_name,
                n_trials=campaign.n_trials,
                target=campaign.target.value,
                supervised=supervised,
            ))

    def pruned(
        self, index: int, trial: TrialResult, planned: PlannedTrial
    ) -> None:
        """Pruned trial ``index``'s events, as an executed trial emits them."""
        tracer = self.tracer
        if tracer is None:
            return
        span = begin_trial_span(tracer, self.root, index) if self.root else ""
        tracer.emit(TrialStart(trial=index))
        emit_trial_events(
            tracer, index, trial, fired=planned.fired, pruned=True
        )
        if span:
            end_trial_span(tracer, span, trial)

    def end(self, golden: ExecutionResult, counts: OutcomeCounts) -> None:
        if self.tracer is None:
            return
        campaign = self.campaign
        self.tracer.emit(CampaignEnd(
            program=campaign.module.name,
            func=campaign.func_name,
            counts=counts.as_dict(),
            golden_cycles=golden.cycles,
            golden_instructions=golden.instructions,
        ))
        if self.root:
            self.tracer.emit(SpanEnd(
                span=self.root, status="ok", count=campaign.n_trials
            ))


def run_plan(
    campaign: Campaign,
    planner: Callable[[ExecutionResult], list[PlannedTrial]],
    emitter: CampaignEmitter,
    trace_blocks: bool = False,
    supervisor_config=None,
) -> tuple[CampaignResult, list]:
    """Plan, execute and emit a campaign: the pipeline every flavour shares.

    Starts the campaign, looks its golden run up once and hands it to
    ``planner``, which returns one :class:`PlannedTrial` per trial.  Then
    walks the plan in trial order: a pruned trial is rebuilt from the
    golden run, every other one runs here, through :func:`run_trial` or,
    with a ``supervisor_config``, through one
    :class:`~repro.recover.supervisor.Supervisor` built for the campaign.
    Returns the campaign result and one recovery record per trial (None
    unless supervised and failing).
    """
    tracer = emitter.tracer
    emitter.start(supervised=supervisor_config is not None)
    golden = run_golden(campaign, tracer=tracer)
    plan = planner(golden)
    supervisor = None
    if supervisor_config is not None:
        from repro.recover.supervisor import Supervisor

        supervisor = Supervisor(campaign, golden, supervisor_config)
    trial_fuel = trial_fuel_for(campaign, golden)
    code_cache = module_code(campaign.module, campaign.cost_model)
    span_root = emitter.root
    counts = OutcomeCounts()
    trials: list[TrialResult] = []
    records: list = []
    for index, planned in enumerate(plan):
        record = None
        if planned.pruned:
            trial = reconstruct_pruned_trial(golden, planned)
            emitter.pruned(index, trial, planned)
        elif supervisor is not None:
            trial, record = supervisor.run_trial(
                planned.rng, tracer=tracer, trial_index=index,
                span_root=span_root,
            )
        else:
            trial = run_trial(
                campaign, golden, trial_fuel, planned.rng, code_cache,
                tracer=tracer, trial_index=index, trace_blocks=trace_blocks,
                span_root=span_root,
                injector=(
                    None if planned.spec is None
                    else RegisterFaultInjector(planned.spec)
                ),
                snapshots=golden.snapshots,
            )
        counts.record(trial.outcome)
        trials.append(trial)
        records.append(record)
    emitter.end(golden, counts)
    return CampaignResult(golden=golden, counts=counts, trials=trials), records


def run_campaign(
    campaign: Campaign,
    seed: int | np.random.Generator | None = None,
    tracer: Tracer | None = None,
    trace_blocks: bool = False,
    trace_spans: bool = False,
) -> CampaignResult:
    """Execute ``campaign`` and classify every trial.

    A ``tracer`` receives the event stream (campaign bounds, cache
    lookups, per-trial start / injection / end; per-block transitions
    when ``trace_blocks``); ``trace_spans`` adds deterministic causal
    spans (:mod:`repro.obs.spans`).
    """
    emitter = CampaignEmitter(tracer, campaign, seed, trace_spans)
    result, _records = run_plan(
        campaign, lambda _golden: plan_trials(campaign, seed), emitter,
        trace_blocks=trace_blocks,
    )
    return result


@dataclass
class TimelineCampaignResult:
    """A campaign whose trial count and timing came from a timeline.

    Attributes:
        result: the underlying classified campaign.
        arrivals: fault arrival times (mission seconds), one per trial,
            index-aligned with ``result.trials``.
        phases: the mission phase each arrival landed in (same order).
        window: the ``(t0, t1)`` mission window that was simulated.
        expected_trials: analytic expectation of the arrival count
            (``rate × ∫ multiplier dt``) — what the Poisson draw was
            aimed at.
    """

    result: CampaignResult
    arrivals: np.ndarray
    phases: list
    window: tuple[float, float]
    expected_trials: float

    def trials_in_phase(self, phase) -> list[TrialResult]:
        """The trial records whose arrivals landed in ``phase``."""
        return [
            trial
            for trial, p in zip(self.result.trials, self.phases)
            if p is phase
        ]


def sample_trial_arrivals(
    timeline,
    t0: float,
    t1: float,
    arrival_rate_per_s: float,
    rng: np.random.Generator,
    subsystem: str = "register",
) -> np.ndarray:
    """Draw one campaign's fault arrival times from a timeline.

    :func:`repro.radiation.schedule.sample_arrivals` (non-homogeneous
    Poisson thinning), drawn before the per-trial generators are forked.
    """
    from repro.radiation.schedule import sample_arrivals

    return sample_arrivals(
        timeline, t0, t1, arrival_rate_per_s, rng, subsystem
    )


def run_timeline_campaign(
    campaign: Campaign,
    timeline,
    t0: float,
    t1: float,
    arrival_rate_per_s: float,
    seed: int | np.random.Generator | None = None,
    tracer: Tracer | None = None,
    trace_blocks: bool = False,
    trace_spans: bool = False,
    subsystem: str = "register",
) -> TimelineCampaignResult:
    """Run a campaign whose faults arrive per an environment timeline.

    Instead of a flat ``campaign.n_trials``, the trial count and times
    come from non-homogeneous Poisson thinning of the timeline's
    ``subsystem`` multiplier over ``[t0, t1)``: SAA passes and solar
    particle events concentrate trials exactly where the environment
    concentrates upsets.  The timeline planner is the plain one after the
    arrival draw: the draw consumes the master generator first, then
    :func:`run_campaign` forks the per-trial generators from it, so a
    fixed seed fixes the arrivals and every trial.
    """
    rng = make_rng(seed)
    arrivals = sample_trial_arrivals(
        timeline, t0, t1, arrival_rate_per_s, rng, subsystem
    )
    expected = timeline.expected_events(arrival_rate_per_s, t0, t1, subsystem)
    timed = replace(campaign, n_trials=len(arrivals))
    result = run_campaign(
        timed, seed=rng, tracer=tracer,
        trace_blocks=trace_blocks, trace_spans=trace_spans,
    )
    phases = [timeline.phase_at(float(t)) for t in arrivals]
    return TimelineCampaignResult(
        result=result,
        arrivals=arrivals,
        phases=phases,
        window=(t0, t1),
        expected_trials=expected,
    )


# -- provably-benign trial pruning ---------------------------------------------


@dataclass
class PrunedTrials:
    """The execution plan of a pruned campaign.

    Attributes:
        golden: the fault-free reference run.
        report: the masking analysis that justified each pruning verdict
            (the module's cached report).
        trials: one :class:`PlannedTrial` per campaign trial, index-aligned
            with the unpruned campaign's trial sequence.
    """

    golden: ExecutionResult
    report: "MaskingReport"  # noqa: F821 - analysis import is lazy
    trials: list[PlannedTrial]

    @property
    def n_pruned(self) -> int:
        return sum(1 for trial in self.trials if trial.pruned)

    @property
    def prune_rate(self) -> float:
        if not self.trials:
            return 0.0
        return self.n_pruned / len(self.trials)


def golden_sites(campaign: Campaign, golden: ExecutionResult) -> SiteTable:
    """The site table of ``golden``, ``campaign``'s golden run.

    Recorded the first time a pruned campaign plans from the run: one
    more run of golden, per step, under a :class:`SiteRecorder`.  Kept
    in the run's snapshot table, so it lives with the golden run in the
    module's record and every later pruned campaign over it plans by
    lookup alone.  Plain campaigns never read it and never pay for it.
    """
    sites = golden.snapshots.sites
    if sites is None:
        recorder = SiteRecorder(campaign.module)
        run = Interpreter(
            campaign.module,
            cost_model=campaign.cost_model,
            fuel=campaign.fuel,
            code_cache=module_code(campaign.module, campaign.cost_model),
            step_hook=recorder,
        ).run(campaign.func_name, list(campaign.args))
        sites = golden.snapshots.sites = recorder.finish(run.instructions)
    return sites


def prune_masked_trials(
    campaign: Campaign,
    seed: int | np.random.Generator | None = None,
    golden: ExecutionResult | None = None,
) -> PrunedTrials:
    """Plan a pruned campaign: resolve every trial, classify, mark prunable.

    Each trial's own child of the seed draws its dynamic index, then its
    site and bit from golden's site table (:func:`golden_sites`,
    :meth:`~repro.faults.seu.SiteTable.fault`): the calls
    :func:`run_campaign`'s injector makes, on the same stream in the
    same order, so the resolved specs equal the unpruned campaign's.
    Faults the masking analysis classifies EXACT_BENIGN — provably
    reproducing the golden run bit for bit — plus faults that never
    fire are marked ``pruned``; the rest, CHECK_MASKED included (benign
    or detected depending on dynamic values), must execute.

    The verdicts come from the module's masking report, kept in its
    shared record (:func:`repro.ir.interp.module_record`): the first
    pruned campaign over a module computes it with
    :func:`repro.analysis.masking.analyze_masking`, every later one
    reuses it.  The golden lookup (:func:`run_golden`) checks the record
    against the module's printed IR, so a module changed in place is
    analysed, and its golden run recorded, again.  ``golden`` is that
    lookup when the caller has just made it for this campaign
    (:func:`run_campaign_pruned`, so that a campaign looks golden up
    once); without it, planning makes its own.  Register campaigns only:
    heap faults have no masking analysis.
    """
    from repro.analysis.masking import EXACT_BENIGN, MaskClass, analyze_masking

    if campaign.target is not FaultTarget.REGISTER:
        raise FaultInjectionError(
            f"trial pruning requires a REGISTER campaign, got "
            f"{campaign.target.value} — the masking analysis proves "
            f"register faults benign, not heap faults"
        )
    if golden is None:
        golden = run_golden(campaign)
    # Checked against the module's IR by the golden lookup just made.
    record = module_record(campaign.module)
    if record.masking is None:
        record.masking = analyze_masking(campaign.module)
    report = record.masking
    sites = golden_sites(campaign, golden)

    trials: list[PlannedTrial] = []
    for rng in trial_rngs(seed, campaign.n_trials):
        index = int(rng.integers(golden.instructions))
        fault = sites.fault(index, rng)
        if fault is None:
            # The fault never fired: the trial re-runs the golden path
            # untouched and classifies BENIGN — reconstructible exactly.
            trials.append(PlannedTrial(
                spec=FaultSpec(target=campaign.target, dynamic_index=index),
                fired=False, pruned=True,
            ))
            continue
        spec, (func_name, block, body_index) = fault
        masking = report.for_function(func_name)
        mask_class = (
            masking.classify(block, body_index, spec.location, spec.bit)
            if masking is not None else MaskClass.POSSIBLY_ACE
        )
        trials.append(PlannedTrial(
            spec=spec, func=func_name, block=block, body_index=body_index,
            mask_class=mask_class, pruned=mask_class in EXACT_BENIGN,
        ))
    return PrunedTrials(golden=golden, report=report, trials=trials)


def reconstruct_pruned_trial(
    golden: ExecutionResult, planned: PlannedTrial
) -> TrialResult:
    """The exact :class:`TrialResult` a pruned trial would have produced.

    Sound because EXACT_BENIGN faults (and faults that never fire) leave
    execution bit-identical to the golden run: same return value, same
    cycle count, relative error zero.
    """
    return TrialResult(
        spec=planned.spec,
        outcome=FaultOutcome.BENIGN,
        value=golden.value,
        rel_error=0.0,
        cycles=golden.cycles,
    )


def run_campaign_pruned(
    campaign: Campaign,
    seed: int | np.random.Generator | None = None,
    tracer: Tracer | None = None,
    trace_blocks: bool = False,
    trace_spans: bool = False,
) -> CampaignResult:
    """Execute ``campaign``, skipping statically-proven-benign trials.

    Produces the exact ``CampaignResult`` of ``run_campaign(campaign,
    seed)`` — byte-identical trial records and outcome counts — while
    only executing the trials the masking analysis could not prove
    EXACT_BENIGN.  Pruned trial records are reconstructed from the golden
    run; executed trials run with pre-resolved injectors (same site, bit
    and firing point the unpruned campaign would draw).

    The campaign looks golden up once and plans from that lookup: from
    its site table and the module's masking report, both made by the
    first pruned campaign over the module and reused by every later one
    (:func:`prune_masked_trials`).
    """
    emitter = CampaignEmitter(tracer, campaign, seed, trace_spans)
    result, _records = run_plan(
        campaign,
        lambda golden: prune_masked_trials(
            campaign, seed, golden=golden
        ).trials,
        emitter, trace_blocks=trace_blocks,
    )
    return result
