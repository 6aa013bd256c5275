"""Bounded ingestion queues with explicit shed policies.

The mission-control service never lets one chatty (or bursty) board run
the ground station out of memory: telemetry waits in bounded FIFOs of
frames (the service keeps one per shard, each frame a tick of all the
shard's boards), and when a queue is full the configured
:class:`ShedPolicy` decides *which* frame loses —

- ``DROP_OLDEST``: admit the new frame, shed the queue's oldest one
  (freshest-data-wins; the scorer sees a gap in the past);
- ``REJECT``: refuse the new frame, keep the backlog (oldest-data-wins;
  the scorer sees a gap at the front).

Both policies preserve the one invariant everything downstream relies
on: **frames within a board are never reordered** — the queue holds a
strictly-increasing run of tick indices at all times, so per-board
detector state always advances monotonically.  Conservation is exact
and checkable at any instant::

    arrivals == processed + shed + len(queue)

The hypothesis property suite (``tests/service/test_backpressure_properties.py``)
drives random burst schedules through random queue bounds and asserts
both invariants plus deadlock freedom.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from collections import deque

import numpy as np

from repro.errors import ConfigError


class ShedPolicy(enum.Enum):
    """What a full queue does with the next arrival."""

    DROP_OLDEST = "drop-oldest"
    REJECT = "reject"


@dataclass(frozen=True)
class Frame:
    """One telemetry frame in flight through the service.

    Attributes:
        board_id: id of the queue the frame is offered to (one board,
            or a shard's boards together).
        tick: logical tick index (strictly increasing per queue).
        t: simulated sample time.
        row: featurized telemetry: one board's row, or a (boards ×
            features) matrix (NaN row = sensor dropout).
        enqueued_pc: ``perf_counter`` stamp at enqueue (decision-latency
            measurement only; never traced, traces stay clock-free).
    """

    board_id: str
    tick: int
    t: float
    row: np.ndarray
    enqueued_pc: float = 0.0


@dataclass(frozen=True)
class OfferResult:
    """Outcome of offering one frame to a bounded queue.

    Attributes:
        accepted: whether the offered frame entered the queue.
        shed: the frame that lost, if any (the offered frame itself
            under REJECT; the previous head under DROP_OLDEST).
    """

    accepted: bool
    shed: Frame | None = None


@dataclass
class BoardQueue:
    """A bounded FIFO of telemetry frames (one board's, or one shard's).

    Attributes:
        board_id: owning board (or shard).
        capacity: maximum frames held (>= 1).
        policy: what to do with an arrival when full.
        arrivals: frames ever offered.
        processed: frames ever popped.
        shed: frames ever lost to the policy.
    """

    board_id: str
    capacity: int = 64
    policy: ShedPolicy = ShedPolicy.DROP_OLDEST
    arrivals: int = 0
    processed: int = 0
    shed: int = 0
    _frames: deque = field(default_factory=deque, repr=False)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ConfigError(
                f"queue capacity must be >= 1, got {self.capacity}"
            )
        if not isinstance(self.policy, ShedPolicy):
            self.policy = ShedPolicy(self.policy)

    def __len__(self) -> int:
        return len(self._frames)

    @property
    def full(self) -> bool:
        return len(self._frames) >= self.capacity

    def peek(self) -> Frame | None:
        """The next frame to pop, without popping it."""
        return self._frames[0] if self._frames else None

    def offer(self, frame: Frame) -> OfferResult:
        """Offer one frame; the policy resolves overflow.

        Ticks must arrive strictly increasing per queue — reordered
        ingestion would silently corrupt sequential detector state, so
        it is a hard error rather than a shed.
        """
        if frame.board_id != self.board_id:
            raise ConfigError(
                f"frame for {frame.board_id!r} offered to queue "
                f"{self.board_id!r}"
            )
        if self._frames and frame.tick <= self._frames[-1].tick:
            raise ConfigError(
                f"out-of-order frame for {self.board_id!r}: tick "
                f"{frame.tick} after {self._frames[-1].tick}"
            )
        self.arrivals += 1
        if not self.full:
            self._frames.append(frame)
            return OfferResult(accepted=True)
        if self.policy is ShedPolicy.REJECT:
            self.shed += 1
            return OfferResult(accepted=False, shed=frame)
        oldest = self._frames.popleft()
        self.shed += 1
        self._frames.append(frame)
        return OfferResult(accepted=True, shed=oldest)

    def pop(self) -> Frame | None:
        """Remove and return the oldest frame (None when empty)."""
        if not self._frames:
            return None
        self.processed += 1
        return self._frames.popleft()

    def pop_tick(self, tick: int) -> tuple[Frame | None, list[Frame]]:
        """Pop the frame for ``tick``, discarding any staler frames.

        Returns ``(frame_or_None, stale)`` where ``stale`` are frames
        with tick < the requested one (possible when the consumer
        skipped ahead after sheds); stale frames count as processed —
        they left the queue through the consumer, not the policy.
        """
        stale: list[Frame] = []
        while self._frames and self._frames[0].tick < tick:
            stale.append(self._frames.popleft())
            self.processed += 1
        if self._frames and self._frames[0].tick == tick:
            self.processed += 1
            return self._frames.popleft(), stale
        return None, stale

    def conservation_holds(self) -> bool:
        """The exact-accounting invariant (checked by property tests)."""
        return self.arrivals == self.processed + self.shed + len(self)
