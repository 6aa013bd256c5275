"""Constellation-scale async mission-control service.

Sharded, backpressured fleet ingestion with byte-identical decisions:
an asyncio front-end (:class:`AsyncFleetService`) over bounded
per-board queues, a deterministic shard router, one in-process scorer
per shard (:class:`InProcessBackend`), a supervisor owning escalation
and crash recovery across shard boundaries, and a seeded load generator
for saturation benchmarks — all gated to produce per-board
alarm/escalation histories byte-identical to the synchronous
:class:`~repro.core.sel.fleet.SelFleetService`.
"""

from repro.detect.fleet import FleetConfig, FleetScorer
from repro.service.backend import InProcessBackend
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
    "ReferenceRun",
    "ReplaySource",
    "ServiceConfig",
    "ServiceHistory",
    "ServiceRunReport",
    "ShardCheckpoint",
    "ShardIngest",
    "ShardScorer",
    "ShardState",
    "ShardStepResult",
    "ShedPolicy",
    "FleetConfig",
    "FleetScorer",
    "latency_summary",
    "make_members",
    "nearest_rank",
    "record_fleet_telemetry",
    "rows_per_second",
    "run_replay_reference",
    "service_history",
    "shard_boards",
    "storm_timeline",
]
