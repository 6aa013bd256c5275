"""Typed events and the tracing bus.

Every observable moment of the engine — a trial starting, an SEU landing
in a register, a checkpoint being taken, a detector scoring a sample —
is one immutable :class:`Event` subclass.  Events carry only JSON-scalar
fields (plus one flat dict for aggregate counts) so a JSONL trace
round-trips losslessly through :meth:`Event.to_dict` /
:func:`event_from_dict`.

Events are deliberately clock-free: no wall-clock timestamps, only
logical time (trial index, dynamic instruction count, cycles, simulated
seconds).  That is what makes a traced campaign reproducible — the same
seed produces the same event stream byte for byte.

The :class:`Tracer` is the bus: ``tracer.emit(event)`` stamps a
monotonic sequence number and fans the event out to every attached sink.
Instrumentation points guard with ``if tracer is not None`` so the
disabled mode costs one pointer comparison.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, ClassVar, IO

from repro.errors import ConfigError

#: Registry of event classes by their ``kind`` tag (filled by
#: ``__init_subclass__``); drives JSONL parsing.
EVENT_TYPES: dict[str, type["Event"]] = {}


@dataclass(frozen=True)
class Event:
    """Base class for all observability events.

    Subclasses set a unique ``kind`` class tag and declare only
    JSON-serializable fields; both constraints are what let a trace file
    be parsed back into the same typed objects.
    """

    kind: ClassVar[str] = ""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if not cls.kind:
            raise TypeError(f"{cls.__name__} must define a kind tag")
        if cls.kind in EVENT_TYPES:
            raise TypeError(f"duplicate event kind {cls.kind!r}")
        EVENT_TYPES[cls.kind] = cls

    def to_dict(self) -> dict[str, Any]:
        """Flat dict form with the ``kind`` tag, ready for JSON."""
        return {"kind": self.kind, **asdict(self)}


def event_from_dict(record: dict[str, Any]) -> Event:
    """Inverse of :meth:`Event.to_dict` (ignores unknown keys like seq)."""
    kind = record.get("kind")
    cls = EVENT_TYPES.get(kind)  # type: ignore[arg-type]
    if cls is None:
        raise ConfigError(f"unknown event kind {kind!r}")
    names = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in record.items() if k in names})


# -- campaign lifecycle --------------------------------------------------------


@dataclass(frozen=True)
class CampaignStart(Event):
    """A fault-injection campaign began.

    Attributes:
        program: module name.
        func: entry function.
        n_trials: trials planned.
        target: fault target class ("register" / "memory" / ...).
        supervised: whether a recovery supervisor is in the loop.
    """

    kind: ClassVar[str] = "campaign-start"

    program: str
    func: str
    n_trials: int
    target: str
    supervised: bool = False


@dataclass(frozen=True)
class CampaignEnd(Event):
    """A campaign finished; carries the aggregate outcome tallies."""

    kind: ClassVar[str] = "campaign-end"

    program: str
    func: str
    counts: dict[str, int]
    golden_cycles: int = 0
    golden_instructions: int = 0


@dataclass(frozen=True)
class GoldenCacheLookup(Event):
    """One golden-run lookup in the campaign module's record."""

    kind: ClassVar[str] = "golden-cache"

    hit: bool
    instructions: int


# -- per-trial events ----------------------------------------------------------


@dataclass(frozen=True)
class TrialStart(Event):
    """One faulted trial began."""

    kind: ClassVar[str] = "trial-start"

    trial: int


@dataclass(frozen=True)
class Injection(Event):
    """The trial's SEU landed (site and bit fully resolved).

    ``location`` is a register name for register faults or a heap cell
    index for memory faults; ``fired`` is False when the particle missed
    (e.g. a MEMORY target with nothing allocated), in which case the
    remaining fields echo the unresolved request.  ``pruned`` marks a
    trial whose record was reconstructed by the masking analysis instead
    of executed (see ``repro.faults.campaign.run_campaign_pruned``).
    """

    kind: ClassVar[str] = "injection"

    trial: int
    target: str
    dynamic_index: int
    location: str | int | None
    bit: int | None
    fired: bool = True
    pruned: bool = False


@dataclass(frozen=True)
class TrialEnd(Event):
    """One trial finished and was classified."""

    kind: ClassVar[str] = "trial-end"

    trial: int
    outcome: str
    cycles: int
    rel_error: float = 0.0


# -- recovery events -----------------------------------------------------------


@dataclass(frozen=True)
class CheckpointTaken(Event):
    """The checkpoint hook captured interpreter state at a safe point."""

    kind: ClassVar[str] = "checkpoint"

    trial: int
    instructions: int
    cycles: int
    taken: int


@dataclass(frozen=True)
class WatchdogFire(Event):
    """A watchdog expired during the trial (the run classifies as HANG)."""

    kind: ClassVar[str] = "watchdog-fire"

    trial: int
    budget: int


@dataclass(frozen=True)
class LadderAttemptEvent(Event):
    """The supervisor climbed one rung of the escalation ladder."""

    kind: ClassVar[str] = "ladder-attempt"

    trial: int
    rung: str
    attempt: int
    success: bool
    cycles: int
    backoff_s: float
    latency_s: float


@dataclass(frozen=True)
class RecoveryDone(Event):
    """The supervisor's verdict on one observable failure."""

    kind: ClassVar[str] = "recovery-done"

    trial: int
    outcome: str
    recovered: bool
    rung: str | None
    attempts: int
    latency_s: float
    wasted_cycles: int
    persistence: str


# -- detector / interpreter / mission events -----------------------------------


@dataclass(frozen=True)
class DetectorDecision(Event):
    """One SEL-daemon scoring decision (per telemetry sample)."""

    kind: ClassVar[str] = "detector-decision"

    t: float
    score: float
    threshold: float
    anomalous: bool
    hits: int
    window_len: int
    window_full: bool
    alarm: bool
    warming_up: bool = False


@dataclass(frozen=True)
class FleetDecision(Event):
    """One fleet scoring tick (all boards, one batched decision).

    Board lists are comma-joined id strings ("" when empty) so the event
    keeps JSON-scalar fields and stays groupable with cheap string ops.

    Attributes:
        t: simulated tick time.
        n_boards: fleet size.
        n_scored: boards actually scored this tick (finite telemetry,
            not quarantined, past warmup).
        n_anomalous: boards whose score exceeded the threshold.
        alarms: ids of boards whose persistent alarm fired this tick.
        quarantined: ids newly quarantined this tick.
        released: ids released from quarantine this tick.
        max_score: largest score among scored boards (0.0 if none).
        warming_up: whether the fleet is still inside warmup.
    """

    kind: ClassVar[str] = "fleet-decision"

    t: float
    n_boards: int
    n_scored: int
    n_anomalous: int
    alarms: str
    quarantined: str
    released: str
    max_score: float
    warming_up: bool = False

    def alarm_ids(self) -> list[str]:
        """Alarming board ids as a list (inverse of the comma join)."""
        return self.alarms.split(",") if self.alarms else []

    def quarantined_ids(self) -> list[str]:
        """Newly quarantined board ids as a list."""
        return self.quarantined.split(",") if self.quarantined else []

    def released_ids(self) -> list[str]:
        """Released board ids as a list."""
        return self.released.split(",") if self.released else []


@dataclass(frozen=True)
class QueueShed(Event):
    """The ingestion front-end shed a telemetry frame under backpressure.

    Emitted by the mission-control service when a board's bounded queue
    overflows.  ``policy`` names the shed policy that acted
    ("drop-oldest" dropped the queue's oldest frame to admit the new
    one; "reject" refused the new frame).  ``tick`` is the logical tick
    index of the *shed* frame, so the trace pins down exactly which
    sample never reached the scorer.

    Attributes:
        t: simulated time of the shed frame.
        board_id: board whose frame was shed.
        tick: logical tick index of the shed frame.
        policy: shed policy that acted.
        queue_len: queue depth after the shed.
    """

    kind: ClassVar[str] = "queue-shed"

    t: float
    board_id: str
    tick: int
    policy: str
    queue_len: int


@dataclass(frozen=True)
class BoardPowerCycle(Event):
    """The fleet supervisor power-cycled one board.

    The sharded service's escalation record: one event per commanded
    reboot, so per-board escalation history is reconstructible from the
    trace alone (the synchronous service keeps it only on the live
    controller).

    Attributes:
        t: simulated time of the reboot command.
        board_id: rebooted board.
        shard: shard index that raised the alarm.
        had_latchup: whether a latch-up was active (False = false reboot).
    """

    kind: ClassVar[str] = "board-power-cycle"

    t: float
    board_id: str
    shard: int = 0
    had_latchup: bool = True


@dataclass(frozen=True)
class ShardRestart(Event):
    """A crashed shard worker was restarted and its state restored.

    Attributes:
        t: simulated time of the tick being processed when the crash
            was detected.
        shard: shard index.
        snapshot_tick: tick of the snapshot the shard was restored from.
        replayed_ticks: ticks re-stepped from the replay buffer to catch
            the restored scorer up to the last applied decision.
    """

    kind: ClassVar[str] = "shard-restart"

    t: float
    shard: int
    snapshot_tick: int
    replayed_ticks: int


@dataclass(frozen=True)
class BlockTransition(Event):
    """The interpreter entered a basic block (hot; enable deliberately)."""

    kind: ClassVar[str] = "block"

    func: str
    block: str


@dataclass(frozen=True)
class PhaseTransition(Event):
    """The mission entered a new radiation phase.

    Emitted by the phase-adaptive degradation controller when the
    environment timeline crosses a phase boundary (QUIET → SAA entry,
    SPE onset, decay back to quiet).

    Attributes:
        t: simulated time of the transition.
        previous: phase being left.
        phase: phase being entered.
        checkpoint: whether a pre-emptive checkpoint was commanded.
        scrub_period_s: memory-scrub cadence after the transition.
        detector_threshold_scale: fleet detector threshold scale after
            the transition (< 1 means tightened).
    """

    kind: ClassVar[str] = "phase-transition"

    t: float
    previous: str
    phase: str
    checkpoint: bool = False
    scrub_period_s: float = 0.0
    detector_threshold_scale: float = 1.0


@dataclass(frozen=True)
class WorkloadShed(Event):
    """A workload was shed to concentrate protection budget."""

    kind: ClassVar[str] = "workload-shed"

    t: float
    workload: str
    criticality: str
    phase: str


@dataclass(frozen=True)
class WorkloadRestored(Event):
    """A previously shed workload was restored after phase decay."""

    kind: ClassVar[str] = "workload-restored"

    t: float
    workload: str
    criticality: str
    phase: str


@dataclass(frozen=True)
class MissionDay(Event):
    """One day-chunk of the mission simulator resolved in bulk."""

    kind: ClassVar[str] = "mission-day"

    day: float
    seu_events: int
    compute_failures: int
    downtime_s: float


@dataclass(frozen=True)
class MissionSel(Event):
    """One latch-up arrived during the mission."""

    kind: ClassVar[str] = "mission-sel"

    day: float
    delta_a: float
    detected: bool
    destroyed: bool


# -- sinks ---------------------------------------------------------------------


class InMemorySink:
    """Collects events in a list (tests, worker-side forwarding).

    Attributes:
        events: emitted events in order.
        records: ``(seq, event)`` pairs as stamped by the tracer.
    """

    def __init__(self) -> None:
        self.events: list[Event] = []
        self.records: list[tuple[int, Event]] = []

    def write(self, event: Event, seq: int) -> None:
        self.events.append(event)
        self.records.append((seq, event))

    def close(self) -> None:  # pragma: no cover - nothing to release
        pass


class JsonlSink:
    """Streams events to a JSONL file, one ``{"seq", "kind", ...}`` per line.

    Floats that JSON cannot express (``inf`` relative errors of integer
    SDC) round-trip via Python's ``Infinity`` extension, which
    :func:`read_trace` reads back.  The file is flushed after each
    :class:`CampaignEnd`, so a finished campaign survives a later crash;
    a campaign the crash cuts short reads back without its end, and the
    report marks it cut.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh: IO[str] | None = self.path.open("w", encoding="utf-8")

    def write(self, event: Event, seq: int) -> None:
        if self._fh is None:
            raise ConfigError(f"JSONL sink {self.path} already closed")
        record = {"seq": seq, **event.to_dict()}
        self._fh.write(json.dumps(record) + "\n")
        if isinstance(event, CampaignEnd):
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_trace(path: str | Path) -> list[tuple[int, Event]]:
    """Parse a JSONL trace into ``(seq, event)`` pairs, in file order.

    Raises :class:`ConfigError` naming the first line that does not
    parse, such as the last line of a trace cut mid-write.
    """
    pairs: list[tuple[int, Event]] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigError(
                    f"{path}:{lineno}: unparseable trace line: {exc}"
                ) from exc
            pairs.append((int(record.get("seq", lineno - 1)),
                          event_from_dict(record)))
    return pairs


class Tracer:
    """The event bus: stamps sequence numbers, fans out to sinks.

    A tracer is cheap enough to build per campaign; instrumentation
    points accept ``tracer=None`` and skip all work when tracing is off.
    Sequence numbers are assigned at emit time.
    """

    __slots__ = ("sinks", "_seq")

    def __init__(self, *sinks) -> None:
        self.sinks = list(sinks)
        self._seq = 0

    def emit(self, event: Event) -> None:
        seq = self._seq
        self._seq = seq + 1
        for sink in self.sinks:
            sink.write(event, seq)

    @property
    def recorder(self):
        """The first attached flight recorder, or None."""
        from repro.obs.recorder import FlightRecorder

        for sink in self.sinks:
            if isinstance(sink, FlightRecorder):
                return sink
        return None

    def close(self) -> None:
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if callable(close):
                close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
