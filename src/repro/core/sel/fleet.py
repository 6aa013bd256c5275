"""Fleet-scale SEL detection service.

One ground-side (or bus-controller-side) service watches a *fleet* of
commodity boards — a CubeSat constellation, or the many compute nodes of
one large spacecraft — instead of running one scoring daemon per board.
Per tick it samples every board, featurizes the rows, scores them in one
batched pass through a shared fitted detector
(:class:`repro.detect.FleetScorer`), and routes each board's alarms into
that board's own power-cycle controller.  Boards whose current sensor
drops out are quarantined instead of alarming the whole fleet.

Every tick emits one :class:`repro.obs.events.FleetDecision`, so the
board-level outcome (who power-cycled, when) is reconstructible from the
trace alone — ``repro.obs.report.fleet_outcome`` is the replay.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.sel.featurizer import Featurizer
from repro.core.sel.policy import PowerCycleController
from repro.detect.base import AnomalyDetector
from repro.detect.fleet import FleetConfig, FleetScorer, FleetStep
from repro.errors import ConfigError, DeviceDestroyed
from repro.faults.sel import LatchupGenerator
from repro.hw.board import Board
from repro.obs.aggregate import latency_histogram
from repro.obs.events import FleetDecision, PhaseTransition, Tracer
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import ROOT, SpanEnd, SpanStart, fleet_root, span_id
from repro.radiation.schedule import (
    EnvironmentTimeline,
    MissionPhase,
    sample_arrivals,
)
from repro.rng import make_rng
from repro.telemetry.sampler import sample_fleet_tick
from repro.units import SECONDS_PER_DAY
from repro.workloads.stress import StressSchedule

#: Default fleet detector threshold scale per mission phase: tighten as
#: the flux (and so the SEL arrival rate) rises.  Matches the
#: ``detector_threshold_scale`` column of
#: :data:`repro.recover.adaptive.DEFAULT_PHASE_POLICIES`.
DEFAULT_PHASE_THRESHOLD_SCALES: dict[MissionPhase, float] = {
    MissionPhase.QUIET: 1.0,
    MissionPhase.SAA: 0.9,
    MissionPhase.SPE: 0.75,
}


@dataclass
class FleetMember:
    """One board under fleet supervision.

    Attributes:
        board_id: unique id within the fleet.
        board: the simulated hardware.
        schedule: the workload it runs.
        controller: its power-cycle policy (per board, so one board's
            cooldown never blocks another board's reboot).
        dead: set when the board is destroyed (sampling stops).
    """

    board_id: str
    board: Board
    schedule: StressSchedule
    controller: PowerCycleController = None  # type: ignore[assignment]
    dead: bool = False

    def __post_init__(self) -> None:
        if self.controller is None:
            self.controller = PowerCycleController(board=self.board)


def schedule_fleet_latchups(
    members: list["FleetMember"],
    timeline: EnvironmentTimeline,
    sel_rate_per_board_day: float,
    timeline_seed: int,
    t0: float,
    t1: float,
) -> dict[str, list[float]]:
    """Inject timeline-driven latch-ups over ``[t0, t1)`` fleet-wide.

    Each board gets its own thinned non-homogeneous Poisson arrival
    stream (board-subsystem sensitivity, so SPE phases dominate) and its
    own log-uniform severity draws, all forked deterministically from
    ``timeline_seed`` in member order — the schedule is a pure function
    of (timeline, seed, window, member order).  Both the synchronous
    :class:`SelFleetService` and the sharded async service call this one
    function, so their fleets see byte-identical fault schedules.
    Returns the onset times per board id.
    """
    base_rate = sel_rate_per_board_day / SECONDS_PER_DAY
    master = make_rng(timeline_seed)
    onsets: dict[str, list[float]] = {}
    for member, child in zip(members, master.spawn(len(members))):
        arrivals = sample_arrivals(
            timeline, t0, t1, base_rate, child, subsystem="board"
        )
        generator = LatchupGenerator(seed=child)
        times = [float(t) for t in arrivals]
        for onset in times:
            member.board.inject_latchup(generator.sample(onset))
        onsets[member.board_id] = times
    return onsets


@dataclass
class FleetTickResult:
    """What happened during one service tick.

    Attributes:
        step: the raw scorer output.
        rebooted: ids of boards power-cycled this tick.
        dead: ids of boards found destroyed this tick.
    """

    step: FleetStep
    rebooted: list[str] = field(default_factory=list)
    dead: list[str] = field(default_factory=list)


class SelFleetService:
    """Batched SEL detection across a fleet of boards.

    Attributes:
        members: supervised boards, index-aligned with scorer rows.
        scorer: the shared batched scorer.
        metrics: optional registry; scoring latency lands in the
            ``fleet.score_latency_s`` fixed-bucket histogram (wall-clock
            measurement stays out of the event trace, which is
            clock-free; the fixed buckets make per-shard registries
            mergeable).
        trace_spans: when set (and a tracer is attached), emit the
            deterministic span skeleton — a ``fleet`` root, one ``tick``
            span per tick, and a ``power-cycle`` child span per reboot.
            Span ids derive from (timeline_seed, fleet size, tick index)
            only, never the clock.
    """

    def __init__(
        self,
        detector: AnomalyDetector,
        members: list[FleetMember],
        config: FleetConfig = FleetConfig(),
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        timeline: EnvironmentTimeline | None = None,
        sel_rate_per_board_day: float = 0.05,
        timeline_seed: int = 0,
        threshold_scales: dict[MissionPhase, float] | None = None,
        trace_spans: bool = False,
    ) -> None:
        if not members:
            raise ConfigError("fleet service needs at least one member")
        n_cores = members[0].board.spec.n_cores
        if any(m.board.spec.n_cores != n_cores for m in members):
            raise ConfigError("fleet members must share a core count")
        if sel_rate_per_board_day < 0:
            raise ConfigError("SEL rate must be >= 0")
        self.members = members
        self.featurizer = Featurizer(n_cores=n_cores)
        self.scorer = FleetScorer(
            detector, [m.board_id for m in members], config
        )
        self.tracer = tracer
        self.metrics = metrics
        self.timeline = timeline
        self.sel_rate_per_board_day = sel_rate_per_board_day
        self.timeline_seed = timeline_seed
        self.threshold_scales = dict(
            threshold_scales
            if threshold_scales is not None
            else DEFAULT_PHASE_THRESHOLD_SCALES
        )
        self._phase: MissionPhase | None = None
        self.trace_spans = trace_spans
        self.span_root = fleet_root(len(members), timeline_seed)
        self._tick_index = 0
        self._root_open = False

    def schedule_timeline_latchups(
        self, t0: float, t1: float
    ) -> dict[str, list[float]]:
        """Inject timeline-driven latch-ups over ``[t0, t1)`` fleet-wide.

        Delegates to :func:`schedule_fleet_latchups` (shared with the
        sharded async service) so the schedule stays a pure function of
        (timeline, seed, window, member order).
        """
        if self.timeline is None:
            raise ConfigError("no timeline attached to this fleet service")
        return schedule_fleet_latchups(
            self.members, self.timeline, self.sel_rate_per_board_day,
            self.timeline_seed, t0, t1,
        )

    def _apply_phase(self, t: float) -> None:
        """Follow the timeline's phase; tighten the detector as flux rises."""
        phase = self.timeline.phase_at(t)
        if phase is self._phase:
            return
        previous = self._phase
        self._phase = phase
        scale = self.threshold_scales.get(phase, 1.0)
        self.scorer.set_threshold_scale(scale)
        if self.tracer is not None and previous is not None:
            self.tracer.emit(
                PhaseTransition(
                    t=t,
                    previous=previous.value,
                    phase=phase.value,
                    detector_threshold_scale=scale,
                )
            )

    @property
    def board_ids(self) -> list[str]:
        return [m.board_id for m in self.members]

    def member(self, board_id: str) -> FleetMember:
        for member in self.members:
            if member.board_id == board_id:
                return member
        raise ConfigError(f"unknown board id {board_id!r}")

    def _sample_rows(self, t: float) -> tuple[np.ndarray, list[str]]:
        """One featurized row per board; destroyed boards go NaN."""
        rows = np.full(
            (len(self.members), self.featurizer.n_columns), np.nan
        )
        newly_dead: list[str] = []
        for i, member in enumerate(self.members):
            if member.dead:
                continue
            try:
                samples = sample_fleet_tick(
                    [member.board], [member.schedule], t
                )
            except DeviceDestroyed:
                member.dead = True
                newly_dead.append(member.board_id)
                continue
            rows[i] = self.featurizer.row(samples[0])
        return rows, newly_dead

    def _record_latency(self, elapsed: float) -> None:
        hist = self.metrics.histograms.get("fleet.score_latency_s")
        if hist is None:
            hist = latency_histogram()
            self.metrics.histograms["fleet.score_latency_s"] = hist
        hist.record(elapsed)

    def tick(self, t: float) -> FleetTickResult:
        """Sample, score and respond for the whole fleet at time ``t``."""
        spans = self.tracer is not None and self.trace_spans
        if spans and not self._root_open:
            self.tracer.emit(
                SpanStart(
                    span=self.span_root, parent=ROOT, name="fleet",
                    index=self.timeline_seed,
                    detail=f"{len(self.members)} boards",
                )
            )
            self._root_open = True
        tick_span = ""
        if spans:
            tick_span = span_id(self.span_root, "tick", self._tick_index)
            self.tracer.emit(
                SpanStart(
                    span=tick_span, parent=self.span_root, name="tick",
                    index=self._tick_index,
                )
            )
        self._tick_index += 1
        if self.timeline is not None:
            self._apply_phase(t)
        rows, newly_dead = self._sample_rows(t)
        started = time.perf_counter()
        step = self.scorer.step(t, rows)
        elapsed = time.perf_counter() - started
        if self.metrics is not None:
            self._record_latency(elapsed)
        rebooted: list[str] = []
        for index in step.alarms:
            member = self.members[index]
            if member.controller.on_alarm(t):
                if spans:
                    cycle_span = span_id(
                        tick_span, "power-cycle", len(rebooted)
                    )
                    self.tracer.emit(
                        SpanStart(
                            span=cycle_span, parent=tick_span,
                            name="power-cycle", index=len(rebooted),
                            detail=member.board_id,
                        )
                    )
                    self.tracer.emit(SpanEnd(span=cycle_span))
                rebooted.append(member.board_id)
        if self.tracer is not None:
            finite = step.scores[np.isfinite(step.scores)]
            self.tracer.emit(
                FleetDecision(
                    t=t,
                    n_boards=len(self.members),
                    n_scored=step.n_scored,
                    n_anomalous=int(step.anomalous.sum()),
                    alarms=",".join(
                        self.members[i].board_id for i in step.alarms
                    ),
                    quarantined=",".join(
                        self.members[i].board_id for i in step.quarantined
                    ),
                    released=",".join(
                        self.members[i].board_id for i in step.released
                    ),
                    max_score=float(finite.max()) if len(finite) else 0.0,
                    warming_up=step.warming_up,
                )
            )
        if spans:
            self.tracer.emit(
                SpanEnd(
                    span=tick_span,
                    status="warmup" if step.warming_up else "ok",
                    count=step.n_scored,
                )
            )
        return FleetTickResult(step=step, rebooted=rebooted, dead=newly_dead)

    def close_spans(self) -> None:
        """End the fleet root span (idempotent; ``run`` calls it)."""
        if (
            self.tracer is not None
            and self.trace_spans
            and self._root_open
        ):
            self.tracer.emit(
                SpanEnd(span=self.span_root, count=self._tick_index)
            )
            self._root_open = False

    def run(
        self,
        duration_s: float,
        rate_hz: float = 10.0,
        t_start: float = 0.0,
        inject_latchups: bool = True,
    ) -> list[FleetTickResult]:
        """Tick the fleet at ``rate_hz`` for ``duration_s`` seconds.

        With a timeline attached, the run first schedules the window's
        timeline-driven latch-ups across the fleet (disable with
        ``inject_latchups=False`` when the caller injects its own), and
        each tick follows the mission phase, tightening the detector
        threshold through SAA passes and solar particle events.
        """
        if rate_hz <= 0 or duration_s <= 0:
            raise ConfigError("duration and rate must be positive")
        if self.timeline is not None and inject_latchups:
            self.schedule_timeline_latchups(t_start, t_start + duration_s)
        results = []
        for i in range(int(duration_s * rate_hz)):
            results.append(self.tick(t_start + i / rate_hz))
        self.close_spans()
        return results

    def health_snapshot(self) -> dict:
        """Scorer health rollup plus the service's latency summary."""
        snap = self.scorer.health_snapshot()
        if self.metrics is not None:
            hist = self.metrics.histograms.get("fleet.score_latency_s")
            if hist is not None and hist.count:
                snap["histograms"]["fleet.score_latency_s"] = hist.summary()
        return snap

    def alarm_times(self) -> dict[str, list[float]]:
        """Per-board alarm times (the live counterpart of the trace
        replay in :func:`repro.obs.report.fleet_outcome`)."""
        return {
            state.board_id: list(state.alarms)
            for state in self.scorer.boards
            if state.alarms
        }
