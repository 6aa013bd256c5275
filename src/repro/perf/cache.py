"""Golden-run cache: stop re-deriving identical fault-free reference runs.

Every campaign starts with a golden (fault-free) run of its module; sweeps
like ``bench_dmr_tradeoff`` and ``bench_placement_ablation`` construct many
campaigns over the *same* instrumented module + args, and the DMR/quantize
runtimes re-run their golden reference on every ``campaign()`` call.  The
cache keys on a **content fingerprint** — a SHA-256 of the printed IR —
not on the module object or its name, so an instrumented clone of a module
never hits the cache entry of its uninstrumented original, and any in-place
mutation of a module changes the key rather than returning a stale run.

A cached entry is only served when the requesting campaign's fuel budget
covers the recorded instruction count; a campaign whose fuel could not have
completed the golden run re-executes (and fails) exactly as it would have
without the cache.

An entry keeps the golden run's snapshot table
(:attr:`~repro.ir.interp.ExecutionResult.snapshots`), which names blocks
rather than holding them, so a clone served another module's entry binds
it to its own blocks.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace

from repro.ir.costmodel import CostModel
from repro.ir.interp import ExecutionResult
from repro.ir.module import Module
from repro.ir.printer import print_module


def module_fingerprint(module: Module) -> str:
    """Content hash of a module: SHA-256 of its printed IR.

    Two modules with identical printed IR behave identically under the
    interpreter (the printer is the module's canonical serialization), so
    the fingerprint is a sound cache key for execution results.
    """
    return hashlib.sha256(print_module(module).encode("utf-8")).hexdigest()


def cost_model_key(cost_model: CostModel) -> tuple:
    """Hashable identity of a cost model's cycle charges."""
    return (
        cost_model.name,
        cost_model.int_alu,
        cost_model.int_div,
        cost_model.fp_alu,
        cost_model.magnitude,
        cost_model.load,
        cost_model.store,
        cost_model.branch,
        cost_model.call_overhead,
        tuple(sorted(
            (op.value, cost) for op, cost in cost_model.overrides.items()
        )),
    )


@dataclass
class CacheStats:
    """Hit/miss counters of one cache instance."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }


class GoldenRunCache:
    """LRU cache of golden :class:`ExecutionResult` objects.

    Thread-safe; bounded at ``maxsize`` entries.  Entries are defensively
    copied on the way out so callers can never mutate a cached run.
    """

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.stats = CacheStats()
        self._entries: OrderedDict[tuple, ExecutionResult] = OrderedDict()
        self._lock = threading.Lock()

    def key_for(
        self,
        module: Module,
        func_name: str,
        args: tuple[int | float, ...],
        cost_model: CostModel,
    ) -> tuple:
        """Cache key covering everything a golden run's outcome depends on."""
        return (
            module_fingerprint(module),
            func_name,
            tuple(args),
            cost_model_key(cost_model),
        )

    def get(self, key: tuple, fuel: int) -> ExecutionResult | None:
        """Return the cached golden run, or None on miss.

        A hit requires the cached run to fit the caller's ``fuel`` budget:
        a run that recorded more instructions than the budget would have
        hung under it, so serving it would silently change semantics.
        """
        with self._lock:
            golden = self._entries.get(key)
            if golden is None or golden.instructions > fuel:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return replace(golden, block_trace=list(golden.block_trace))

    def put(self, key: tuple, golden: ExecutionResult) -> None:
        """Store a (successful) golden run."""
        with self._lock:
            self._entries[key] = replace(
                golden, block_trace=list(golden.block_trace)
            )
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop all entries and reset the stats."""
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)


#: Process-global golden-run cache consulted by
#: :func:`repro.faults.campaign.run_golden`.  Each worker process of the
#: parallel campaign engine warms its own instance in the pool initializer.
GOLDEN_CACHE = GoldenRunCache()
