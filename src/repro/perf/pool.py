"""Persistent warm worker pools that notice a lost worker.

The fork-per-campaign pool of the original parallel engine paid its full
setup cost — fork, module re-parse, golden re-validation, block
compilation — on **every** campaign.  :class:`PoolRegistry` keeps pools
*alive across campaigns*: an LRU of named :class:`WarmPool`s keyed by
everything the worker warm-start depends on (module fingerprint via
printed IR, entry + args, cost model, fuel, supervisor config, worker
count).  The first campaign for a key forks and warm-starts the pool;
later campaigns of the same shape reuse the hot workers, whose parsed
module, validated golden run and compiled ``code_cache`` are already in
place, so dispatch costs only queue traffic.

``multiprocessing.Pool`` replaces a worker that dies (OOM kill,
SIGKILL) but never finishes the chunk that worker held, so a plain
``Pool.map`` would wait forever.  :meth:`WarmPool.map` watches the
workers that were alive at dispatch and raises
:class:`repro.errors.WorkerLost` as soon as one of them exits with
chunks outstanding.

Each registry counts its pools' lifecycle in :attr:`PoolRegistry.stats`
(pools created and reused, workers lost and alive, chunks dispatched),
as :attr:`repro.perf.cache.GoldenRunCache.stats` does for the cache;
``benchmarks/bench_perf.py`` stores :data:`POOL_REGISTRY`'s under
``parallel.warm_pool`` in ``BENCH_perf.json``, where
``python -m repro.perf.report`` shows them.
"""

from __future__ import annotations

import atexit
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from multiprocessing import get_context

from repro.errors import WorkerLost

#: Seconds between checks for a lost worker while chunks are outstanding.
LOSS_POLL_S = 0.05


def _pool_context():
    try:
        return get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX hosts
        return get_context("spawn")


@dataclass
class PoolStats:
    """Lifecycle counts of one :class:`PoolRegistry`."""

    created: int = 0
    reused: int = 0
    workers_lost: int = 0
    workers_alive: int = 0
    chunks_dispatched: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


class WarmPool:
    """One persistent process pool, warm-started for a campaign shape."""

    def __init__(
        self, key: tuple, pool, workers: int, stats: PoolStats
    ) -> None:
        self.key = key
        self.pool = pool
        self.workers = workers
        self.stats = stats

    def map(self, fn, chunks: list) -> list:
        """``fn`` over ``chunks`` in order; raises ``WorkerLost``.

        An exception raised by ``fn`` in a worker is re-raised here.  A
        worker alive at dispatch that exits before every chunk is back
        raises :class:`repro.errors.WorkerLost` instead of waiting forever.
        """
        self.stats.chunks_dispatched += len(chunks)
        workers = list(self.pool._pool)
        pending = self.pool.map_async(fn, chunks)
        while not pending.ready():
            pending.wait(LOSS_POLL_S)
            lost = [w.pid for w in workers if w.exitcode is not None]
            if lost and not pending.ready():
                self.stats.workers_lost += 1
                raise WorkerLost(
                    f"pool worker(s) {lost} exited with chunks outstanding"
                )
        return pending.get()

    def shutdown(self) -> None:
        self.pool.terminate()
        self.pool.join()


class PoolRegistry:
    """LRU registry of warm pools, bounded to ``max_pools`` alive at once.

    ``get`` returns the existing pool for a key (reuse — the warm path)
    or forks and warm-starts a new one, evicting the least recently used
    pool beyond the bound.  Returns None when the host cannot create a
    pool at all (no POSIX semaphores, fork blocked); callers fall back to
    in-process execution exactly as before.
    """

    def __init__(self, max_pools: int = 2) -> None:
        if max_pools < 1:
            raise ValueError(f"max_pools must be >= 1, got {max_pools}")
        self.max_pools = max_pools
        self.stats = PoolStats()
        self._pools: OrderedDict[tuple, WarmPool] = OrderedDict()
        self._lock = threading.Lock()

    def get(
        self,
        key: tuple,
        workers: int,
        initializer,
        initargs: tuple,
    ) -> WarmPool | None:
        with self._lock:
            pool = self._pools.get(key)
            if pool is not None:
                self._pools.move_to_end(key)
                self.stats.reused += 1
                return pool
        try:
            raw = _pool_context().Pool(
                processes=workers,
                initializer=initializer,
                initargs=initargs,
            )
        except (OSError, PermissionError, ValueError):
            return None
        pool = WarmPool(key, raw, workers, self.stats)
        evicted: list[WarmPool] = []
        with self._lock:
            self._pools[key] = pool
            while len(self._pools) > self.max_pools:
                _, old = self._pools.popitem(last=False)
                evicted.append(old)
            self.stats.created += 1
            self._count_alive()
        for old in evicted:
            old.shutdown()
        return pool

    def discard(self, pool: WarmPool) -> None:
        """Drop a pool that turned out broken (a worker raised or died)."""
        with self._lock:
            if self._pools.get(pool.key) is pool:
                del self._pools[pool.key]
            self._count_alive()
        pool.shutdown()

    def clear(self) -> None:
        """Terminate every pool (tests, interpreter shutdown)."""
        with self._lock:
            pools = list(self._pools.values())
            self._pools.clear()
            self.stats.workers_alive = 0
        for pool in pools:
            pool.shutdown()

    def _count_alive(self) -> None:
        self.stats.workers_alive = sum(p.workers for p in self._pools.values())

    def __len__(self) -> int:
        return len(self._pools)


#: Process-global pool registry used by :mod:`repro.faults.parallel`.
POOL_REGISTRY = PoolRegistry()
atexit.register(POOL_REGISTRY.clear)
