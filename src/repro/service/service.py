"""The constellation-scale mission-control service.

:class:`AsyncFleetService` ties the package together in one plain loop.
Per shard it samples each tick's telemetry into the shard's bounded
queue (:class:`~repro.service.ingest.ShardIngest`), assembles the tick's
rows back out, steps the shard's scorer inline
(:class:`~repro.service.backend.InProcessBackend`), and hands the
decision to the cross-shard
:class:`~repro.service.supervisor.FleetSupervisor` for escalation.  The
loop works in windows of ``max_inflight_ticks`` ticks; the order of its
calls across shards is spelled out in :meth:`AsyncFleetService._drive`.

**Byte-identity.**  With ``max_inflight_ticks=1`` (the default) each
shard scores and escalates tick ``k`` before it samples tick ``k + 1``
— the exact dataflow of the synchronous
:class:`~repro.core.sel.fleet.SelFleetService.tick` — and since every
per-board quantity (board RNG, detector stream state, alarm/quarantine
streaks, controller cooldown) evolves independently of other boards,
the sharded run's per-board histories are byte-identical to the
synchronous single-scorer run at any shard count.
Raising ``max_inflight_ticks`` samples ahead of scoring *within* a
shard (saturation/load-test mode); identity is then only guaranteed for
replay sources, where there is no escalation feedback into sampling.

**Crash recovery.**  The supervisor holds the latest state snapshot per
shard plus a replay buffer of the rows since it.  When a shard step
raises :class:`~repro.errors.ShardCrashed` (the ``crash_at`` test hook
drops a scorer), the service restarts the scorer, restores the
snapshot, re-steps the buffered ticks (discarding their outputs — they
were already applied), emits a traced
:class:`~repro.obs.events.ShardRestart`, and re-dispatches the current
tick.  No quarantine or escalation state lives in the scorer, so the
recovery is lossless by construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.sel.fleet import (
    FleetMember,
    LiveBoardSource,
    schedule_fleet_latchups,
)
from repro.detect.base import AnomalyDetector
from repro.detect.fleet import FleetConfig
from repro.errors import ConfigError, ServiceError, ShardCrashed
from repro.obs.aggregate import Rollup
from repro.obs.events import ShardRestart, Tracer
from repro.radiation.schedule import EnvironmentTimeline, MissionPhase
from repro.service.backend import InProcessBackend
from repro.service.ingest import ReplaySource, ShardIngest
from repro.service.metrics import DecisionLatencyTracker, rows_per_second
from repro.service.queues import ShedPolicy
from repro.service.shard import ShardScorer, shard_boards
from repro.service.supervisor import FleetSupervisor


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the service (scoring knobs live in FleetConfig).

    Attributes:
        n_shards: scoring shards requested (clamped to fleet size).
        strategy: accepted only as ``"sequential"``, the one backend
            (:class:`~repro.service.backend.InProcessBackend`).
        queue_capacity: bounded queue depth in ticks (one queue per
            shard, which sheds a tick for all of the shard's boards).
        shed_policy: what a full queue does with the next arrival.
        max_inflight_ticks: the loop's window: ticks each shard
            samples before it scores them.  1 (default) = lockstep, the
            byte-identity mode for live boards; >1 samples ahead of
            scoring (replay / saturation mode), and beyond
            ``queue_capacity`` sampling overruns the bounded queues —
            this is how backpressure sheds are actually exercised, with
            the shed frames scoring as sensor dropouts.
        snapshot_every: checkpoint cadence in ticks (the crash-recovery
            anchor; also bounds the replay buffer length).
    """

    n_shards: int = 1
    strategy: str = "sequential"
    queue_capacity: int = 64
    shed_policy: ShedPolicy = ShedPolicy.DROP_OLDEST
    max_inflight_ticks: int = 1
    snapshot_every: int = 50

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ConfigError(f"need >= 1 shard, got {self.n_shards}")
        if self.strategy != "sequential":
            raise ConfigError(
                f"unknown strategy {self.strategy!r}; "
                "expected 'sequential'"
            )
        if self.queue_capacity < 1:
            raise ConfigError("queue capacity must be >= 1")
        if self.max_inflight_ticks < 1:
            raise ConfigError("max_inflight_ticks must be >= 1")
        if self.snapshot_every < 1:
            raise ConfigError("snapshot_every must be >= 1")


@dataclass(frozen=True)
class ServiceRunReport:
    """What one service run measured.

    Attributes:
        n_ticks: ticks driven per shard.
        n_boards: fleet size.
        n_shards: effective shard count (after clamping).
        rows_processed: frames that reached a scorer.
        rows_shed: frames lost to backpressure policies.
        restarts: shard crash-recoveries performed.
        elapsed_s: wall-clock time of the sampling and scoring loop
            and of the final state snapshots.
        rows_per_s: throughput over ``elapsed_s``.
        latency: NaN-free decision-latency summary (see
            :func:`repro.obs.metrics.latency_summary`).
    """

    n_ticks: int
    n_boards: int
    n_shards: int
    rows_processed: int
    rows_shed: int
    restarts: int
    elapsed_s: float
    rows_per_s: float
    latency: dict = field(default_factory=dict)
    shard_counters: list = field(default_factory=list)


class AsyncFleetService:
    """Sharded counterpart of
    :class:`~repro.core.sel.fleet.SelFleetService`.

    One-shot: construct, :meth:`run`, then read histories/health.
    """

    def __init__(
        self,
        detector: AnomalyDetector,
        members: list[FleetMember],
        config: FleetConfig = FleetConfig(),
        service: ServiceConfig = ServiceConfig(),
        tracer: Tracer | None = None,
        timeline: EnvironmentTimeline | None = None,
        sel_rate_per_board_day: float = 0.05,
        timeline_seed: int = 0,
        threshold_scales: dict[MissionPhase, float] | None = None,
        source=None,
        crash_at: dict[int, int] | None = None,
    ) -> None:
        if not members:
            raise ConfigError("fleet service needs at least one member")
        self.detector = detector
        self.members = members
        self.config = config
        self.service = service
        self.tracer = tracer
        self.timeline = timeline
        self.sel_rate_per_board_day = sel_rate_per_board_day
        self.timeline_seed = timeline_seed
        self.threshold_scales = threshold_scales
        self.source = source if source is not None else LiveBoardSource(
            members
        )
        if (
            isinstance(self.source, ReplaySource)
            and self.source.n_boards != len(members)
        ):
            raise ConfigError(
                f"replay tensor shape {self.source.rows.shape} does not "
                f"match {len(members)} boards"
            )
        self.live_source = isinstance(self.source, LiveBoardSource)
        #: test hook: shard -> tick at which the scorer is dropped just
        #: before that tick's dispatch (consumed once).
        self.crash_at = dict(crash_at or {})

        board_ids = [m.board_id for m in members]
        self.shard_ids = shard_boards(board_ids, service.n_shards)
        self.n_shards = len(self.shard_ids)
        index_of = {board_id: i for i, board_id in enumerate(board_ids)}
        self.shard_indices = [
            [index_of[board_id] for board_id in ids]
            for ids in self.shard_ids
        ]
        self.supervisor = FleetSupervisor(members, tracer=tracer)
        shard_ids = self.shard_ids

        # Closes over these values, not ``self``: a backend holding a
        # bound method would put the service in a reference cycle, so a
        # finished service and everything it holds would stay in memory
        # until the cyclic collector happened to run.
        def make_scorer(shard: int) -> ShardScorer:
            return ShardScorer(
                shard,
                detector,
                shard_ids[shard],
                config,
                timeline=timeline,
                threshold_scales=threshold_scales,
            )

        self.backend = InProcessBackend(make_scorer, self.n_shards)
        self.latency = DecisionLatencyTracker()
        self.restarts = 0
        self._rows_processed = 0
        self._ingests: list[ShardIngest] = []
        self._buffers: list[list[tuple[int, float, np.ndarray]]] = []
        self._final_states: list = []
        self._ran = False

    # -- run -------------------------------------------------------------------

    def run(
        self,
        duration_s: float,
        rate_hz: float = 10.0,
        t_start: float = 0.0,
        inject_latchups: bool = True,
    ) -> ServiceRunReport:
        """Drive the fleet for ``duration_s`` simulated seconds.

        Mirrors :meth:`SelFleetService.run`: with a timeline attached
        and a live source, the window's timeline-driven latch-ups are
        scheduled first via the shared
        :func:`~repro.core.sel.fleet.schedule_fleet_latchups`.
        """
        if rate_hz <= 0 or duration_s <= 0:
            raise ConfigError("duration and rate must be positive")
        if self._ran:
            raise ServiceError("service runs are one-shot; build a new one")
        n_ticks = int(duration_s * rate_hz)
        if (
            isinstance(self.source, ReplaySource)
            and n_ticks > self.source.n_ticks
        ):
            raise ConfigError(
                f"replay tensor shape {self.source.rows.shape} holds "
                f"{self.source.n_ticks} ticks; {duration_s} s at "
                f"{rate_hz} Hz needs {n_ticks}"
            )
        self._ran = True
        if (
            self.timeline is not None
            and inject_latchups
            and self.live_source
        ):
            schedule_fleet_latchups(
                self.members, self.timeline, self.sel_rate_per_board_day,
                self.timeline_seed, t_start, t_start + duration_s,
            )
        self.backend.start()
        try:
            # Initial anchors: recovery is possible from tick 0 on.
            for shard in range(self.n_shards):
                self.supervisor.checkpoint(
                    shard, -1, self.backend.snapshot(shard)
                )
            started = time.perf_counter()
            self._drive(n_ticks, rate_hz, t_start)
            # Timed: the snapshots fold the scores still unfolded.
            self._final_states = [
                self.backend.snapshot(shard)
                for shard in range(self.n_shards)
            ]
            elapsed = time.perf_counter() - started
        finally:
            self.backend.close()
        rows = self._rows_processed
        shed = sum(
            ingest.counters()["shed"] for ingest in self._ingests
        )
        return ServiceRunReport(
            n_ticks=n_ticks,
            n_boards=len(self.members),
            n_shards=self.n_shards,
            rows_processed=rows,
            rows_shed=shed,
            restarts=self.restarts,
            elapsed_s=elapsed,
            rows_per_s=rows_per_second(rows, elapsed),
            latency=self.latency.summary(),
            shard_counters=[
                ingest.counters() for ingest in self._ingests
            ],
        )

    def _drive(self, n_ticks: int, rate_hz: float, t_start: float) -> None:
        """Sample and score every shard's ticks, window by window.

        A window is ``max_inflight_ticks`` ticks (the last may be
        short).  In the first window each shard samples the window's
        ticks and scores them before the next shard starts; in every
        later window every shard samples the window's ticks, and then
        every shard scores them, in tick order.
        """
        self._ingests = [
            ShardIngest(
                shard,
                self.shard_indices[shard],
                self.shard_ids[shard],
                self.source,
                capacity=self.service.queue_capacity,
                policy=self.service.shed_policy,
                tracer=self.tracer,
            )
            for shard in range(self.n_shards)
        ]
        self._buffers = [[] for _ in range(self.n_shards)]
        shards = range(self.n_shards)
        window = self.service.max_inflight_ticks
        for first in range(0, n_ticks, window):
            ticks = [
                (tick, t_start + tick / rate_hz)
                for tick in range(first, min(first + window, n_ticks))
            ]
            groups = [[shard] for shard in shards] if first == 0 else [shards]
            for group in groups:
                for shard in group:
                    for tick, t in ticks:
                        self._ingests[shard].produce(tick, t)
                for shard in group:
                    for tick, t in ticks:
                        self._consume(shard, tick, t)

    def _consume(self, shard: int, tick: int, t: float) -> None:
        """Score one sampled tick of ``shard`` and apply its decision."""
        rows, frames = self._ingests[shard].assemble(tick)
        self._buffers[shard].append((tick, t, rows))
        result = self._step_with_recovery(shard, tick, t, rows)
        self.supervisor.apply(result)
        if frames:
            done = time.perf_counter()
            frame = next(iter(frames.values()))
            self.latency.record(done - frame.enqueued_pc, len(frames))
            self._rows_processed += len(frames)
        if (tick + 1) % self.service.snapshot_every == 0:
            self.supervisor.checkpoint(
                shard, tick, self.backend.snapshot(shard)
            )
            # Every buffered tick is at or before this one.
            self._buffers[shard].clear()

    def _step_with_recovery(
        self, shard: int, tick: int, t: float, rows: np.ndarray
    ):
        if self.crash_at.get(shard) == tick:
            del self.crash_at[shard]
            self.backend.crash(shard)
        try:
            return self.backend.step(shard, tick, t, rows)
        except ShardCrashed:
            return self._recover_and_step(shard, tick, t, rows)

    def _recover_and_step(
        self, shard: int, tick: int, t: float, rows: np.ndarray
    ):
        """Restart -> restore snapshot -> re-step buffer -> step tick."""
        anchor = self.supervisor.recovery_anchor(shard)
        self.backend.restart(shard)
        self.backend.restore(shard, anchor.state)
        replayed = 0
        for rtick, rt, rrows in self._buffers[shard]:
            if anchor.tick < rtick < tick:
                # Outputs discarded: these decisions were applied
                # before the crash; re-stepping only rebuilds state.
                self.backend.step(shard, rtick, rt, rrows)
                replayed += 1
        self.restarts += 1
        if self.tracer is not None:
            self.tracer.emit(
                ShardRestart(
                    t=t,
                    shard=shard,
                    snapshot_tick=anchor.tick,
                    replayed_ticks=replayed,
                )
            )
        return self.backend.step(shard, tick, t, rows)

    # -- post-run surfaces -----------------------------------------------------

    def alarm_times(self) -> dict[str, list[float]]:
        """Per-board alarm times (byte-identity surface vs the
        synchronous service's :meth:`alarm_times`)."""
        return self.supervisor.alarm_times()

    def reboot_times(self) -> dict[str, list[float]]:
        return self.supervisor.reboot_times()

    def health_rollup(self) -> Rollup:
        """Shard-merged health rollup (equals the synchronous scorer's
        whole-fleet rollup by the mergeability contract)."""
        if not self._final_states:
            raise ServiceError("run the service before reading health")
        merged = Rollup()
        for board_ids, state in zip(self.shard_ids, self._final_states):
            merged.merge(state.boards.copy(state.alarm_lengths).health(board_ids))
        return merged

    def health_snapshot(self) -> dict:
        rollup = self.health_rollup()
        return rollup.snapshot()
