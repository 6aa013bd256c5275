"""Structured observability: events, flight recorder, metrics, reports.

The paper's premise is that commodity computers survive space only when
software can *see* faults as they happen.  This package is the seeing:

- :mod:`repro.obs.events` — a low-overhead event bus.  Typed events
  (trial start/end, injection site+bit, checkpoint taken, watchdog fire,
  ladder rung climbed, detector decision, golden-cache hit/miss) flow
  through a :class:`Tracer` into pluggable sinks: in-memory, JSONL file,
  and the flight recorder.
- :mod:`repro.obs.recorder` — a bounded :class:`FlightRecorder` ring
  buffer that survives simulated power cycles and snapshots a post-mortem
  dump when a trial ends in CRASH or HANG.
- :mod:`repro.obs.metrics` — exact fixed-bucket histograms and the
  nearest-rank :func:`~repro.obs.metrics.latency_summary` of raw samples.
- :mod:`repro.obs.report` — ``python -m repro.obs.report trace.jsonl``
  renders campaign timelines, outcome breakdowns by injection site, and
  detector and fleet decision summaries from a JSONL trace, marking a
  campaign the trace stops inside as cut.
- :mod:`repro.obs.spans` — deterministic causal spans
  (campaign → trial → attempt, fleet → tick → power-cycle) with
  clock-free ids derived from (parent, name, index).
- :mod:`repro.obs.aggregate` — :class:`Rollup`, the one metrics
  registry and event fold (a :class:`Tracer` sink): counters plus exact
  fixed-bucket histograms, where per-shard rollups merge *exactly* equal
  to global aggregation.
- :mod:`repro.obs.query` — :class:`~repro.obs.query.TraceIndex`, the one
  trace reader (campaign segments, each folded into a :class:`Rollup`,
  and one :class:`FleetReplay`), and ``python -m repro.obs.query
  trace.jsonl``: indexed filters, span-tree reconstruction and latency
  percentiles.
- :mod:`repro.obs.export` — ``python -m repro.obs.export``: Prometheus
  text exposition and versioned JSON snapshots of any :class:`Rollup`.
  It is not imported here, so running it with ``-m`` loads it once.

The contract every instrumentation point obeys: **zero overhead when
disabled** (a single ``tracer is None`` test on the non-hot path, one
attribute read per basic block on the interpreter's hot path) and
**determinism when enabled** — campaign results stay byte-identical to
the untraced engine, serial or parallel, because events only observe;
they never touch an RNG or mutate engine state.
"""

from repro.obs.events import (
    BlockTransition,
    CampaignEnd,
    CampaignStart,
    CheckpointTaken,
    DetectorDecision,
    Event,
    FleetDecision,
    GoldenCacheLookup,
    InMemorySink,
    Injection,
    JsonlSink,
    LadderAttemptEvent,
    MissionDay,
    MissionSel,
    PhaseTransition,
    RecoveryDone,
    Tracer,
    TrialEnd,
    TrialStart,
    WatchdogFire,
    WorkloadRestored,
    WorkloadShed,
    event_from_dict,
)
from repro.obs.aggregate import (
    BoardHealth,
    FleetReplay,
    Rollup,
    aggregate_events,
)
from repro.obs.metrics import Histogram
from repro.obs.recorder import FlightRecorder, PostMortemDump
from repro.obs.spans import (
    SpanEnd,
    SpanScope,
    SpanStart,
    campaign_root,
    fleet_root,
    span_id,
)

__all__ = [
    "BlockTransition",
    "BoardHealth",
    "CampaignEnd",
    "CampaignStart",
    "CheckpointTaken",
    "DetectorDecision",
    "Event",
    "FleetDecision",
    "FleetReplay",
    "FlightRecorder",
    "GoldenCacheLookup",
    "Histogram",
    "InMemorySink",
    "Injection",
    "JsonlSink",
    "LadderAttemptEvent",
    "MissionDay",
    "MissionSel",
    "PhaseTransition",
    "PostMortemDump",
    "RecoveryDone",
    "Rollup",
    "SpanEnd",
    "SpanScope",
    "SpanStart",
    "Tracer",
    "TrialEnd",
    "TrialStart",
    "WatchdogFire",
    "WorkloadRestored",
    "WorkloadShed",
    "aggregate_events",
    "campaign_root",
    "event_from_dict",
    "fleet_root",
    "span_id",
]
