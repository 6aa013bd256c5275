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
- :mod:`repro.obs.metrics` — a registry of counters / gauges /
  histograms, either updated directly or derived from the event stream
  via :class:`MetricsSink`.
- :mod:`repro.obs.report` — ``python -m repro.obs.report trace.jsonl``
  renders campaign timelines, outcome breakdowns by injection site, and
  detector decision summaries from a JSONL trace.
- :mod:`repro.obs.spans` — deterministic causal spans
  (campaign → trial → attempt, fleet → tick → power-cycle) with
  clock-free ids derived from (parent, name, index).
- :mod:`repro.obs.aggregate` — streaming windowed rollups over exact
  fixed-bucket histograms; per-shard aggregates merge *exactly* equal to
  global aggregation.
- :mod:`repro.obs.query` — ``python -m repro.obs.query trace.jsonl``:
  indexed filters, span-tree reconstruction and latency percentiles
  over a JSONL trace.
- :mod:`repro.obs.export` — ``python -m repro.obs.export``: Prometheus
  text exposition and versioned JSON snapshots of any registry.

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
    Rollup,
    StreamAggregator,
    aggregate_events,
    fleet_board_health,
    merge_aggregates,
)
from repro.obs.export import (
    export_snapshot,
    load_snapshot,
    snapshot_section,
    to_prometheus,
)
from repro.obs.metrics import (
    Counter,
    ENGINE_METRICS,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSink,
)
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
    "Counter",
    "DetectorDecision",
    "ENGINE_METRICS",
    "Event",
    "FleetDecision",
    "FlightRecorder",
    "Gauge",
    "GoldenCacheLookup",
    "Histogram",
    "InMemorySink",
    "Injection",
    "JsonlSink",
    "LadderAttemptEvent",
    "MetricsRegistry",
    "MetricsSink",
    "MissionDay",
    "MissionSel",
    "PhaseTransition",
    "PostMortemDump",
    "RecoveryDone",
    "Rollup",
    "SpanEnd",
    "SpanScope",
    "SpanStart",
    "StreamAggregator",
    "Tracer",
    "TrialEnd",
    "TrialStart",
    "WatchdogFire",
    "WorkloadRestored",
    "WorkloadShed",
    "aggregate_events",
    "campaign_root",
    "event_from_dict",
    "export_snapshot",
    "fleet_board_health",
    "fleet_root",
    "load_snapshot",
    "merge_aggregates",
    "snapshot_section",
    "span_id",
    "to_prometheus",
]
