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
    times come from ``fleet-decision`` events (the supervisor emits one
    per shard result; the ``alarms`` field carries comma-joined board
    ids), reboots from ``board-power-cycle``, sheds from ``queue-shed``.

    Events are replayed in ``(t, seq)`` order so histories are stable
    even when concurrent shard pipelines interleaved their emissions —
    per-board sequences are unambiguous because one board's events all
    come from one shard's strictly ordered loop.
    """
    if not isinstance(trace, TraceIndex):
        trace = TraceIndex.from_file(trace)
    history = ServiceHistory()

    def ordered(kind: str):
        pairs = trace.by_kind.get(kind, [])
        return sorted(pairs, key=lambda pair: (pair[1].t, pair[0]))

    for _, event in ordered("fleet-decision"):
        history.decisions += 1
        for board_id in event.alarm_ids():
            history.alarm_times.setdefault(board_id, []).append(event.t)
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
