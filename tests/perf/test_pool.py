"""Warm-pool registry and lost-worker detection."""

import os

import pytest

import repro.perf.pool as pool_mod
from repro.errors import WorkerLost
from repro.perf.pool import PoolRegistry


class _FakePool:
    def __init__(self, **kwargs):
        self.kwargs = kwargs
        self.terminated = False

    def map(self, fn, chunks):
        return [fn(c) for c in chunks]

    def terminate(self):
        self.terminated = True

    def join(self):
        pass


class _FakeContext:
    def Pool(self, processes, initializer, initargs):
        return _FakePool(
            processes=processes, initializer=initializer, initargs=initargs
        )


@pytest.fixture
def registry(monkeypatch):
    monkeypatch.setattr(pool_mod, "_pool_context", lambda: _FakeContext())
    return PoolRegistry(max_pools=2)


class TestPoolRegistry:
    def test_same_key_reuses_pool(self, registry):
        first = registry.get(("k1",), 2, None, ())
        second = registry.get(("k1",), 2, None, ())
        assert first is second
        assert len(registry) == 1

    def test_reuse_and_create_metrics(self, registry):
        created = registry.stats.created
        reused = registry.stats.reused
        registry.get(("k1",), 2, None, ())
        registry.get(("k1",), 2, None, ())
        assert registry.stats.created == created + 1
        assert registry.stats.reused == reused + 1

    def test_lru_eviction_terminates_oldest(self, registry):
        p1 = registry.get(("k1",), 1, None, ())
        registry.get(("k2",), 1, None, ())
        registry.get(("k1",), 1, None, ())  # refresh k1
        registry.get(("k3",), 1, None, ())  # evicts k2 (LRU), not k1
        assert len(registry) == 2
        assert registry.get(("k1",), 1, None, ()) is p1
        evicted = registry.get(("k2",), 1, None, ())
        assert evicted is not None and evicted is not p1

    def test_discard_removes_and_terminates(self, registry):
        pool = registry.get(("k1",), 2, None, ())
        registry.discard(pool)
        assert len(registry) == 0
        assert pool.pool.terminated

    def test_clear_empties_registry(self, registry):
        registry.get(("k1",), 1, None, ())
        registry.get(("k2",), 1, None, ())
        registry.clear()
        assert len(registry) == 0
        assert registry.stats.workers_alive == 0

    def test_failed_creation_returns_none(self, registry, monkeypatch):
        class _Broken:
            def Pool(self, **kwargs):
                raise OSError("no semaphores here")

        monkeypatch.setattr(pool_mod, "_pool_context", lambda: _Broken())
        assert registry.get(("k1",), 2, None, ()) is None

    def test_max_pools_validated(self):
        with pytest.raises(ValueError):
            PoolRegistry(max_pools=0)


def _double(chunk):
    return [2 * x for x in chunk]


def _exit_in_worker(chunk):
    os._exit(3)


class TestWorkerLoss:
    def test_map_raises_instead_of_hanging_when_a_worker_dies(
        self, deadline
    ):
        registry = PoolRegistry(max_pools=1)
        pool = registry.get(("loss",), 2, None, ())
        if pool is None:
            pytest.skip("process pools unavailable on this host")
        lost = registry.stats.workers_lost
        try:
            assert pool.map(_double, [[1], [2, 3]]) == [[2], [4, 6]]
            with deadline(10), pytest.raises(WorkerLost):
                pool.map(_exit_in_worker, [[1], [2]])
        finally:
            registry.clear()
        assert registry.stats.workers_lost > lost
