"""Deterministic load generation for the mission-control service.

Everything here is a pure function of seeds: :func:`make_members`
builds a reproducible fleet, :func:`storm_timeline` a bursty mission
profile (a forced solar particle event driving a latch-up burst into an
otherwise quiet window), and :func:`record_fleet_telemetry` replays the
window open-loop — timeline-scheduled latch-ups via the shared
:func:`~repro.core.sel.fleet.schedule_fleet_latchups`, no escalation —
into a ``(n_ticks, n_boards, d)`` telemetry tensor.  Feeding that
tensor through :class:`~repro.service.ingest.ReplaySource` saturates
the service pipeline (frames arrive as fast as the loop takes them),
which is how the benchmark measures rows/s and decision-latency
percentiles without the board simulation on the hot path.

:func:`run_replay_reference` is the synchronous ground truth for replay
runs: one whole-fleet scorer, one supervisor, one tick at a time — no
shards, no queues, no backends — producing the alarm/reboot histories
and health rollup every shard-count cell must match byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.sel.fleet import (
    FleetMember,
    LiveBoardSource,
    schedule_fleet_latchups,
)
from repro.detect.base import AnomalyDetector
from repro.detect.fleet import FleetConfig
from repro.errors import ConfigError
from repro.hw.board import Board
from repro.hw.specs import RASPBERRY_PI_4
from repro.obs.aggregate import Rollup
from repro.radiation.schedule import (
    EnvironmentTimeline,
    MissionPhase,
    SpeModel,
)
from repro.service.shard import ShardScorer
from repro.service.supervisor import FleetSupervisor
from repro.workloads.stress import cpu_memory_stress_schedule


def make_members(
    n_boards: int, seed: int = 200, spec=RASPBERRY_PI_4
) -> list[FleetMember]:
    """A reproducible fleet: one board per member, seeded ``seed + i``."""
    if n_boards < 1:
        raise ConfigError(f"need >= 1 board, got {n_boards}")
    return [
        FleetMember(
            board_id=f"board-{i:03d}",
            board=Board(spec=spec, seed=seed + i),
            schedule=cpu_memory_stress_schedule(spec.n_cores),
        )
        for i in range(n_boards)
    ]


def storm_timeline(
    seed: int = 3,
    onset_s: float = 30.0,
    peak_storm_scale: float = 50.0,
    decay_tau_s: float = 1800.0,
) -> EnvironmentTimeline:
    """A bursty mission profile: quiet, then one forced SPE at
    ``onset_s`` spiking the fleet latch-up rate ``peak_storm_scale``-fold
    — the load generator's saturation burst."""
    return EnvironmentTimeline(
        spe=SpeModel(
            onset_rate_per_day=0.0,
            forced_onsets=(onset_s,),
            peak_storm_scale=peak_storm_scale,
            decay_tau_s=decay_tau_s,
        ),
        seed=seed,
    )


def record_fleet_telemetry(
    members: list[FleetMember],
    duration_s: float,
    rate_hz: float = 10.0,
    t_start: float = 0.0,
    timeline: EnvironmentTimeline | None = None,
    sel_rate_per_board_day: float = 0.05,
    timeline_seed: int = 0,
) -> np.ndarray:
    """Record the fleet's telemetry open-loop (no escalation feedback).

    With a timeline, the window's latch-ups are scheduled through the
    same pure function the live services use, so a recording at a given
    (seed, window) is byte-stable.  Mutates the members' boards — pass
    a dedicated fleet, not one you will also run live.
    """
    if rate_hz <= 0 or duration_s <= 0:
        raise ConfigError("duration and rate must be positive")
    if timeline is not None:
        schedule_fleet_latchups(
            members, timeline, sel_rate_per_board_day, timeline_seed,
            t_start, t_start + duration_s,
        )
    source = LiveBoardSource(members)
    n_ticks = int(duration_s * rate_hz)
    rows = np.empty((n_ticks, len(members), source.n_columns))
    for tick in range(n_ticks):
        rows[tick] = source.gather(
            range(len(members)), tick, t_start + tick / rate_hz
        )
    return rows


@dataclass
class ReferenceRun:
    """The synchronous ground truth for one replay window.

    Attributes:
        alarm_times: per-board alarm times.
        reboot_times: per-board commanded power-cycle times.
        health: the whole-fleet scorer's health rollup.
    """

    alarm_times: dict[str, list[float]] = field(default_factory=dict)
    reboot_times: dict[str, list[float]] = field(default_factory=dict)
    health: Rollup = field(default_factory=Rollup)


def run_replay_reference(
    detector: AnomalyDetector,
    members: list[FleetMember],
    rows: np.ndarray,
    config: FleetConfig = FleetConfig(),
    rate_hz: float = 10.0,
    t_start: float = 0.0,
    timeline: EnvironmentTimeline | None = None,
    threshold_scales: dict[MissionPhase, float] | None = None,
) -> ReferenceRun:
    """Score a recorded tensor synchronously with one whole-fleet scorer.

    The members' controllers take the escalation (open-loop: reboots do
    not change the recording) so the histories are directly comparable
    with an :class:`~repro.service.service.AsyncFleetService` replay
    run over the same tensor — pass freshly built members.
    """
    if rows.ndim != 3 or rows.shape[1] != len(members):
        raise ConfigError(
            f"tensor shape {rows.shape} does not match {len(members)} boards"
        )
    scorer = ShardScorer(
        0,
        detector,
        [m.board_id for m in members],
        config,
        timeline=timeline,
        threshold_scales=threshold_scales,
    )
    supervisor = FleetSupervisor(members)
    for tick in range(rows.shape[0]):
        supervisor.apply(
            scorer.step_tick(tick, t_start + tick / rate_hz, rows[tick])
        )
    return ReferenceRun(
        alarm_times=supervisor.alarm_times(),
        reboot_times=supervisor.reboot_times(),
        health=scorer.scorer.health,
    )
