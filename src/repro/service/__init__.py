"""Constellation-scale async mission-control service.

Sharded, backpressured fleet ingestion with byte-identical decisions:
an asyncio front-end (:class:`AsyncFleetService`) over bounded
per-board queues, a deterministic shard router, pluggable execution
backends (sequential / forked process workers), a supervisor
owning escalation and crash recovery across shard boundaries, and a
seeded load generator for saturation benchmarks — all gated to produce
per-board alarm/escalation histories byte-identical to the synchronous
:class:`~repro.core.sel.fleet.SelFleetService`.
"""

from repro.detect.fleet import FleetConfig, FleetScorer
from repro.service.backend import (
    InProcessBackend,
    ProcessBackend,
    ShardBackend,
    STRATEGIES,
    make_backend,
)
from repro.service.ingest import LiveBoardSource, ReplaySource, ShardIngest
from repro.service.loadgen import (
    ReferenceRun,
    make_members,
    record_fleet_telemetry,
    run_replay_reference,
    storm_timeline,
)
from repro.service.metrics import (
    DecisionLatencyTracker,
    EMPTY_SENTINEL,
    latency_summary,
    nearest_rank,
    rows_per_second,
)
from repro.service.queues import BoardQueue, Frame, OfferResult, ShedPolicy
from repro.service.replay import ServiceHistory, service_history
from repro.service.service import (
    AsyncFleetService,
    ServiceConfig,
    ServiceRunReport,
)
from repro.service.shard import (
    ShardScorer,
    ShardState,
    ShardStepResult,
    shard_boards,
)
from repro.service.supervisor import FleetSupervisor, ShardCheckpoint

__all__ = [
    "AsyncFleetService",
    "BoardQueue",
    "DecisionLatencyTracker",
    "EMPTY_SENTINEL",
    "FleetSupervisor",
    "Frame",
    "InProcessBackend",
    "LiveBoardSource",
    "OfferResult",
    "ProcessBackend",
    "ReferenceRun",
    "ReplaySource",
    "STRATEGIES",
    "ServiceConfig",
    "ServiceHistory",
    "ServiceRunReport",
    "ShardBackend",
    "ShardCheckpoint",
    "ShardIngest",
    "ShardScorer",
    "ShardState",
    "ShardStepResult",
    "ShedPolicy",
    "FleetConfig",
    "FleetScorer",
    "latency_summary",
    "make_backend",
    "make_members",
    "nearest_rank",
    "record_fleet_telemetry",
    "rows_per_second",
    "run_replay_reference",
    "service_history",
    "shard_boards",
    "storm_timeline",
]
