"""The per-board-queue shard ingest, kept as the executable spec.

:class:`PerBoardShardIngest` is :class:`repro.service.ingest.ShardIngest`
as it was before one queue per shard replaced one queue per board: the
code below is that class verbatim (renamed).  ``test_shard_queue.py``
drives it beside the shard-queue ingest through random produce/assemble
schedules and asserts they agree on rows, frames, counters and traces.
"""

from __future__ import annotations

import time

import numpy as np

from repro.errors import ConfigError
from repro.obs.events import QueueShed, Tracer
from repro.service.queues import BoardQueue, Frame, ShedPolicy


class PerBoardShardIngest:
    """One shard's bounded ingestion front: produce frames, assemble ticks.

    Attributes:
        shard: shard index (trace labeling only).
        board_indices: fleet member indices of this shard's boards.
        board_ids: ids, index-aligned with ``board_indices``.
        queues: one bounded queue per board.
    """

    def __init__(
        self,
        shard: int,
        board_indices: list[int],
        board_ids: list[str],
        source,
        capacity: int = 64,
        policy: ShedPolicy = ShedPolicy.DROP_OLDEST,
        tracer: Tracer | None = None,
    ) -> None:
        if len(board_indices) != len(board_ids):
            raise ConfigError("one id per board index required")
        self.shard = shard
        self.board_indices = list(board_indices)
        self.board_ids = list(board_ids)
        self.source = source
        self.tracer = tracer
        self.queues = {
            board_id: BoardQueue(board_id, capacity=capacity, policy=policy)
            for board_id in board_ids
        }

    @property
    def n_boards(self) -> int:
        return len(self.board_ids)

    def produce(self, tick: int, t: float) -> int:
        """Sample and offer one tick's frame for every board.

        Returns the number of frames shed by the policy this call.
        """
        sheds = 0
        stamp = time.perf_counter()
        for index, board_id in zip(self.board_indices, self.board_ids):
            row = self.source.row(index, tick, t)
            queue = self.queues[board_id]
            outcome = queue.offer(
                Frame(
                    board_id=board_id, tick=tick, t=t, row=row,
                    enqueued_pc=stamp,
                )
            )
            if outcome.shed is not None:
                sheds += 1
                if self.tracer is not None:
                    self.tracer.emit(
                        QueueShed(
                            t=outcome.shed.t,
                            board_id=board_id,
                            tick=outcome.shed.tick,
                            policy=queue.policy.value,
                            queue_len=len(queue),
                        )
                    )
        return sheds

    def assemble(
        self, tick: int
    ) -> tuple[np.ndarray, dict[str, Frame]]:
        """Pop tick ``tick``'s frames into the shard's row matrix.

        Boards with no frame for the tick (shed under either policy)
        contribute a NaN row — a sensor dropout, exactly as the fleet
        scorer models a failed sensor.
        """
        rows = np.full((self.n_boards, self.source.n_columns), np.nan)
        frames: dict[str, Frame] = {}
        for i, board_id in enumerate(self.board_ids):
            frame, _stale = self.queues[board_id].pop_tick(tick)
            if frame is not None:
                rows[i] = frame.row
                frames[board_id] = frame
        return rows, frames

    def counters(self) -> dict[str, int]:
        """Summed queue accounting across the shard's boards."""
        totals = {"arrivals": 0, "processed": 0, "shed": 0, "queued": 0}
        for queue in self.queues.values():
            totals["arrivals"] += queue.arrivals
            totals["processed"] += queue.processed
            totals["shed"] += queue.shed
            totals["queued"] += len(queue)
        return totals
