"""Where a shard's scoring runs: one scorer per shard, in this process.

The service calls :meth:`InProcessBackend.step` with one tick's rows and
gets a :class:`~repro.service.shard.ShardStepResult` back, inline in its
loop; each shard's ticks are stepped one at a time, in tick order.

The crash-recovery surface: ``crash`` (test hook: the scorer is lost),
``restart`` (fresh, blank scorer) and ``restore`` (load a
:class:`~repro.service.shard.ShardState` snapshot) — the service
composes them into snapshot/replay recovery that provably loses no
quarantine state.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import ConfigError, ShardCrashed
from repro.service.shard import ShardScorer, ShardState, ShardStepResult


class InProcessBackend:
    """Scorers in this process, stepped inline."""

    def __init__(
        self, make_scorer: Callable[[int], ShardScorer], n_shards: int
    ) -> None:
        if n_shards < 1:
            raise ConfigError(f"need at least one shard, got {n_shards}")
        self.make_scorer = make_scorer
        self.n_shards = n_shards
        self._scorers: list[ShardScorer | None] = [None] * n_shards

    def start(self) -> None:
        self._scorers = [self.make_scorer(i) for i in range(self.n_shards)]

    def _scorer(self, shard: int) -> ShardScorer:
        scorer = self._scorers[shard]
        if scorer is None:
            raise ShardCrashed(f"shard {shard} scorer is down")
        return scorer

    def step(
        self, shard: int, tick: int, t: float, rows: np.ndarray
    ) -> ShardStepResult:
        return self._scorer(shard).step_tick(tick, t, rows)

    def snapshot(self, shard: int) -> ShardState:
        return self._scorer(shard).snapshot()

    def restore(self, shard: int, state: ShardState) -> None:
        self._scorer(shard).restore(state)

    def crash(self, shard: int) -> None:
        self._scorers[shard] = None

    def restart(self, shard: int) -> None:
        self._scorers[shard] = self.make_scorer(shard)

    def close(self) -> None:
        self._scorers = [None] * self.n_shards
