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

Lifecycle stats are published to
:data:`repro.obs.metrics.ENGINE_METRICS`: ``warm_pool.created`` /
``warm_pool.reused`` / ``warm_pool.workers_lost`` counters, a
``warm_pool.workers_alive`` gauge and a ``warm_pool.chunks_dispatched``
counter, surfaced by ``python -m repro.perf.report``.
"""

from __future__ import annotations

import atexit
import threading
from collections import OrderedDict
from multiprocessing import get_context

from repro.errors import WorkerLost
from repro.obs.metrics import ENGINE_METRICS

#: Seconds between checks for a lost worker while chunks are outstanding.
LOSS_POLL_S = 0.05


def _pool_context():
    try:
        return get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX hosts
        return get_context("spawn")


class WarmPool:
    """One persistent process pool, warm-started for a campaign shape."""

    def __init__(self, key: tuple, pool, workers: int) -> None:
        self.key = key
        self.pool = pool
        self.workers = workers

    def map(self, fn, chunks: list) -> list:
        """``fn`` over ``chunks`` in order; raises ``WorkerLost``.

        An exception raised by ``fn`` in a worker is re-raised here.  A
        worker alive at dispatch that exits before every chunk is back
        raises :class:`repro.errors.WorkerLost` instead of waiting forever.
        """
        ENGINE_METRICS.counter("warm_pool.chunks_dispatched").inc(len(chunks))
        workers = list(self.pool._pool)
        pending = self.pool.map_async(fn, chunks)
        while not pending.ready():
            pending.wait(LOSS_POLL_S)
            lost = [w.pid for w in workers if w.exitcode is not None]
            if lost and not pending.ready():
                ENGINE_METRICS.counter("warm_pool.workers_lost").inc()
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
                ENGINE_METRICS.counter("warm_pool.reused").inc()
                return pool
        try:
            raw = _pool_context().Pool(
                processes=workers,
                initializer=initializer,
                initargs=initargs,
            )
        except (OSError, PermissionError, ValueError):
            return None
        pool = WarmPool(key, raw, workers)
        evicted: list[WarmPool] = []
        with self._lock:
            self._pools[key] = pool
            while len(self._pools) > self.max_pools:
                _, old = self._pools.popitem(last=False)
                evicted.append(old)
            ENGINE_METRICS.counter("warm_pool.created").inc()
            ENGINE_METRICS.gauge("warm_pool.workers_alive").set(
                sum(p.workers for p in self._pools.values())
            )
        for old in evicted:
            old.shutdown()
        return pool

    def discard(self, pool: WarmPool) -> None:
        """Drop a pool that turned out broken (a worker raised or died)."""
        with self._lock:
            if self._pools.get(pool.key) is pool:
                del self._pools[pool.key]
            ENGINE_METRICS.gauge("warm_pool.workers_alive").set(
                sum(p.workers for p in self._pools.values())
            )
        pool.shutdown()

    def clear(self) -> None:
        """Terminate every pool (tests, interpreter shutdown)."""
        with self._lock:
            pools = list(self._pools.values())
            self._pools.clear()
            ENGINE_METRICS.gauge("warm_pool.workers_alive").set(0)
        for pool in pools:
            pool.shutdown()

    def __len__(self) -> int:
        return len(self._pools)


#: Process-global pool registry used by :mod:`repro.faults.parallel`.
POOL_REGISTRY = PoolRegistry()
atexit.register(POOL_REGISTRY.clear)
