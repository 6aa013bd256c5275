"""Golden-run cache counts.

A campaign's golden (fault-free) run is kept in its module's record
(:class:`repro.ir.interp.ModuleRecord`), beside the module's compiled
code and masking report, and served to every later campaign over that
module object with the same entry point, args and cost model whose fuel
covers its instruction count (:func:`repro.faults.campaign.run_golden`).
It dies with the module.  A module changed in place, a pickled or
deep-copied module and an identical clone each run golden once for
themselves, so a run is only ever replayed on the blocks it ran.

:data:`GOLDEN_CACHE` only counts those lookups, hits and misses, for
the process; it holds no run.
"""

from __future__ import annotations

from dataclasses import dataclass

# Re-exported: the repository benchmark imports it from here.
from repro.ir.printer import module_fingerprint as module_fingerprint


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


class _GoldenLookups:
    """Hit/miss counts of every golden-run lookup in this process."""

    def __init__(self) -> None:
        self.stats = CacheStats()

    def clear(self) -> None:
        """Reset the counts; stored runs stay with their modules."""
        self.stats = CacheStats()


#: The counts of :func:`repro.faults.campaign.run_golden`'s lookups in
#: this process.
GOLDEN_CACHE = _GoldenLookups()
