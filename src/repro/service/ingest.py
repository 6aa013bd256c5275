"""Telemetry sources and the queue-fronted ingestion of one shard.

Two ways telemetry enters the service:

- :class:`~repro.core.sel.fleet.LiveBoardSource` — sample the simulated
  boards themselves, through the same sampler the synchronous service
  uses: each board draws only from its own RNG, a destroyed board
  yields NaN rows forever after, and sampling order across boards is
  immaterial.  This is the mode the byte-identity soak test runs,
  because escalation (power cycles) feeds back into what the next
  sample reads.
- :class:`ReplaySource` — a pre-recorded ``(n_ticks, n_boards, d)``
  telemetry tensor, the load generator's saturation mode: frames are
  served as fast as the pipeline will take them, with no feedback into
  the recording.

Both serve one tick of a shard as a (boards × features) matrix
(``gather``): the replay tensor with one index, the live boards one
``row`` each.

:class:`ShardIngest` fronts one shard's boards with one bounded
:class:`~repro.service.queues.BoardQueue`: ``produce`` samples the
tick's matrix and offers it as one frame (emitting a traced
:class:`~repro.obs.events.QueueShed` per board when the policy sheds),
``assemble`` pops one tick back out as the row matrix the shard scorer
consumes — a tick whose frame was shed scores as a sensor dropout (NaN
rows) for every board of the shard, which is exactly how the fleet
scorer treats a failed sensor.

One queue per shard is the per-board queues it replaces, merged: every
board of a shard is offered every tick and popped every tick, so each
board's queue saw the same offers and pops in the same order and always
held the same ticks.  They shed together, and the shard queue sheds
exactly then; its counts times the board count are the per-board
queues' summed counts.
"""

from __future__ import annotations

import time

import numpy as np

from repro.errors import ConfigError
from repro.obs.events import QueueShed, Tracer
from repro.service.queues import BoardQueue, Frame, ShedPolicy


class ReplaySource:
    """Serves a pre-recorded telemetry tensor (saturation mode)."""

    def __init__(self, rows: np.ndarray) -> None:
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 3:
            raise ConfigError(
                f"replay tensor must be (ticks, boards, d), got {rows.shape}"
            )
        self.rows = rows

    @property
    def n_ticks(self) -> int:
        return self.rows.shape[0]

    @property
    def n_columns(self) -> int:
        return self.rows.shape[2]

    @property
    def n_boards(self) -> int:
        return self.rows.shape[1]

    def row(self, index: int, tick: int, t: float) -> np.ndarray:
        return self.gather(index, tick, t)

    def gather(self, indices, tick: int, t: float) -> np.ndarray:
        """Tick ``tick``'s rows of ``indices``, in one index."""
        if tick >= self.n_ticks:
            raise ConfigError(
                f"replay exhausted: tick {tick} of {self.n_ticks}"
            )
        return self.rows[tick, indices]


class ShardIngest:
    """One shard's bounded ingestion front: produce frames, assemble ticks.

    Attributes:
        shard: shard index (trace labeling only).
        board_indices: fleet member indices of this shard's boards.
        board_ids: ids, index-aligned with ``board_indices``.
        queue: the shard's bounded queue; each frame carries one tick's
            (boards × features) matrix.
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
        self.queue = BoardQueue(
            f"shard-{shard}", capacity=capacity, policy=policy
        )

    @property
    def n_boards(self) -> int:
        return len(self.board_ids)

    def produce(self, tick: int, t: float) -> int:
        """Sample and offer one tick's frame for the shard's boards.

        Returns the number of board frames shed by the policy this call
        (all of the shard's boards, or none).
        """
        stamp = time.perf_counter()
        queue = self.queue
        outcome = queue.offer(
            Frame(
                board_id=queue.board_id, tick=tick, t=t,
                row=self.source.gather(self.board_indices, tick, t),
                enqueued_pc=stamp,
            )
        )
        if outcome.shed is None:
            return 0
        if self.tracer is not None:
            for board_id in self.board_ids:
                self.tracer.emit(
                    QueueShed(
                        t=outcome.shed.t,
                        board_id=board_id,
                        tick=outcome.shed.tick,
                        policy=queue.policy.value,
                        queue_len=len(queue),
                    )
                )
        return self.n_boards

    def assemble(
        self, tick: int
    ) -> tuple[np.ndarray, dict[str, Frame]]:
        """Pop tick ``tick``'s frame: the shard's row matrix, and the
        frame under every board id (no entries when it was shed).

        A shed tick contributes NaN rows — a sensor dropout, exactly as
        the fleet scorer models a failed sensor.
        """
        frame, _stale = self.queue.pop_tick(tick)
        if frame is None:
            rows = np.full((self.n_boards, self.source.n_columns), np.nan)
            return rows, {}
        return frame.row, dict.fromkeys(self.board_ids, frame)

    def counters(self) -> dict[str, int]:
        """Queue accounting in board frames (the shard queue's counts
        times the board count)."""
        queue, n = self.queue, self.n_boards
        return {
            "arrivals": queue.arrivals * n,
            "processed": queue.processed * n,
            "shed": queue.shed * n,
            "queued": len(queue) * n,
        }
