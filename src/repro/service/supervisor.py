"""Fleet supervision across shard boundaries.

Shards score; the supervisor *decides*.  It is the single owner of every
side effect a shard decision implies — per-board power-cycle escalation
(the board's :class:`~repro.core.sel.policy.PowerCycleController`, whose
cooldown must survive shard crashes), the authoritative cross-shard
quarantine set, the per-board alarm history, and the latest state
snapshot of every shard (the crash-recovery anchor).  Because all of
that lives here, a shard scorer is pure compute: losing one loses
nothing that cannot be rebuilt from the supervisor's snapshot plus the
replay buffer.

Per shard result it emits one :class:`~repro.obs.events.FleetDecision`
(scoped to that shard's boards) and one
:class:`~repro.obs.events.BoardPowerCycle` per commanded reboot, so the
per-board alarm/escalation history is reconstructible from the JSONL
trace alone (``repro.service.replay.service_history``) — the same
replayability contract the synchronous service has.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.sel.fleet import FleetMember
from repro.errors import ConfigError
from repro.obs.events import BoardPowerCycle, FleetDecision, Tracer
from repro.service.shard import ShardState, ShardStepResult


@dataclass
class ShardCheckpoint:
    """The supervisor's latest recovery anchor for one shard."""

    tick: int
    state: ShardState


@dataclass
class FleetSupervisor:
    """Owns escalation, quarantine and recovery state for the fleet.

    Attributes:
        members: all fleet members, in fleet order (shared with the
            ingestion side; controllers and boards are mutated here
            only).
        tracer: optional event bus.
        alarm_history: per-board alarm times, in application order.
        quarantined: boards currently quarantined, fleet-wide.
        checkpoints: latest snapshot per shard index.
    """

    members: list[FleetMember]
    tracer: Tracer | None = None
    alarm_history: dict[str, list[float]] = field(default_factory=dict)
    quarantined: set[str] = field(default_factory=set)
    checkpoints: dict[int, ShardCheckpoint] = field(default_factory=dict)
    ticks_applied: int = 0

    def __post_init__(self) -> None:
        self._by_id = {m.board_id: m for m in self.members}
        if len(self._by_id) != len(self.members):
            raise ConfigError("board ids must be unique")

    def member(self, board_id: str) -> FleetMember:
        member = self._by_id.get(board_id)
        if member is None:
            raise ConfigError(f"unknown board id {board_id!r}")
        return member

    def apply(self, result: ShardStepResult) -> list[str]:
        """Apply one shard decision; returns the boards power-cycled.

        Escalation runs in fleet member order *within* the result (the
        shard already reports alarms in its board order), and each
        board's controller sees exactly the alarm sequence it would see
        under the synchronous service — alarms are per-board events and
        boards never migrate between shards mid-run.
        """
        self.ticks_applied += 1
        for board_id in result.quarantined:
            self.quarantined.add(board_id)
        for board_id in result.released:
            self.quarantined.discard(board_id)
        rebooted: list[str] = []
        for board_id in result.alarms:
            self.alarm_history.setdefault(board_id, []).append(result.t)
            member = self.member(board_id)
            had_latchup = bool(member.board.active_latchups)
            if member.controller.on_alarm(result.t):
                rebooted.append(board_id)
                if self.tracer is not None:
                    self.tracer.emit(
                        BoardPowerCycle(
                            t=result.t,
                            board_id=board_id,
                            shard=result.shard,
                            had_latchup=had_latchup,
                        )
                    )
        if self.tracer is not None:
            self.tracer.emit(
                FleetDecision(
                    t=result.t,
                    n_boards=result.n_boards,
                    n_scored=result.n_scored,
                    n_anomalous=result.n_anomalous,
                    alarms=",".join(result.alarms),
                    quarantined=",".join(result.quarantined),
                    released=",".join(result.released),
                    max_score=result.max_score,
                    warming_up=result.warming_up,
                )
            )
        return rebooted

    def checkpoint(self, shard: int, tick: int, state: ShardState) -> None:
        """Record a shard's latest snapshot (the recovery anchor)."""
        self.checkpoints[shard] = ShardCheckpoint(tick=tick, state=state)

    def recovery_anchor(self, shard: int) -> ShardCheckpoint:
        anchor = self.checkpoints.get(shard)
        if anchor is None:
            raise ConfigError(
                f"no snapshot recorded for shard {shard}; cannot recover"
            )
        return anchor

    # -- histories (the byte-identity surface) ---------------------------------

    def alarm_times(self) -> dict[str, list[float]]:
        """Per-board alarm times (compare with
        :meth:`repro.core.sel.fleet.SelFleetService.alarm_times`)."""
        return {
            board_id: list(times)
            for board_id, times in self.alarm_history.items()
            if times
        }

    def reboot_times(self) -> dict[str, list[float]]:
        """Per-board commanded power-cycle times, from the controllers."""
        return {
            m.board_id: list(m.controller.reboots)
            for m in self.members
            if m.controller.reboots
        }
