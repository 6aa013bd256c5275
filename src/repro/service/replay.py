"""Rebuild a service run's history from its JSONL trace alone.

The replayability contract: everything the byte-identity gate compares
— per-board alarm times, commanded power-cycles, shed accounting,
shard restarts — is reconstructible from the clock-free event trace,
with no access to the live objects.  :func:`service_history` walks a
:class:`~repro.obs.query.TraceIndex` (or a trace file) and returns the
same per-board history shape the live
:class:`~repro.service.service.AsyncFleetService` reports, so

``service_history(trace).alarm_times == service.alarm_times()``

is a gate in the soak test, not just documentation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.query import TraceIndex


@dataclass
class ServiceHistory:
    """A service run as reconstructed from its trace.

    Attributes:
        alarm_times: per-board alarm times (FleetDecision events).
        reboot_times: per-board power-cycle times (BoardPowerCycle).
        sheds: per-board shed counts (QueueShed).
        restarts: (shard, snapshot_tick, replayed_ticks) per recovery.
        decisions: FleetDecision count (one per shard per tick).
    """

    alarm_times: dict[str, list[float]] = field(default_factory=dict)
    reboot_times: dict[str, list[float]] = field(default_factory=dict)
    sheds: dict[str, int] = field(default_factory=dict)
    restarts: list[tuple[int, int, int]] = field(default_factory=list)
    decisions: int = 0


def service_history(
    trace: TraceIndex | str | Path,
) -> ServiceHistory:
    """Reconstruct per-board histories from a service trace.

    Accepts a built :class:`TraceIndex` or a JSONL trace path.  Alarm
    times come from the index's replay of the ``fleet-decision`` events
    (the supervisor emits one per shard result), reboots from
    ``board-power-cycle``, sheds from ``queue-shed``.

    One shard emits all of a board's events, in tick order, so each
    board's alarm times are already in time order in the stream; the
    other kinds are replayed in ``(t, seq)`` order, which keeps shard
    restarts in time order however the shards' emissions interleaved.
    """
    if not isinstance(trace, TraceIndex):
        trace = TraceIndex.from_file(trace)
    history = ServiceHistory(
        alarm_times={
            board_id: list(times)
            for board_id, times in trace.fleet.alarms.items()
        },
        decisions=len(trace.by_kind.get("fleet-decision", [])),
    )

    def ordered(kind: str):
        pairs = trace.by_kind.get(kind, [])
        return sorted(pairs, key=lambda pair: (pair[1].t, pair[0]))

    for _, event in ordered("board-power-cycle"):
        history.reboot_times.setdefault(event.board_id, []).append(event.t)
    for _, event in ordered("queue-shed"):
        history.sheds[event.board_id] = (
            history.sheds.get(event.board_id, 0) + 1
        )
    for _, event in ordered("shard-restart"):
        history.restarts.append(
            (event.shard, event.snapshot_tick, event.replayed_ticks)
        )
    return history
