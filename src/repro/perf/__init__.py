"""Performance support: golden-run caching, warm pools, the perf report.

Campaign wall-clock is the binding constraint on how many fault-injection
trials, DMR levels and workloads the experiment suite can afford (see
ROADMAP).  This package holds the cross-cutting perf machinery:

* :mod:`repro.perf.cache` — a process-global golden-run cache keyed by a
  module fingerprint (hash of the printed IR) + entry function + args +
  cost model, so multi-level sweeps stop re-deriving identical golden runs;
* :mod:`repro.perf.pool` — the persistent warm worker-pool registry used
  by the campaign executor, so repeat campaigns skip
  fork/parse/golden-validate entirely, and a lost worker raises instead
  of hanging;
* :mod:`repro.perf.report` — the machine-readable ``BENCH_perf.json``
  writer that gives subsequent PRs a perf trajectory to regress against,
  plus the ``python -m repro.perf.report`` summary CLI.  It is not
  imported here, so running it with ``-m`` loads it once.

The campaign executor itself lives in :mod:`repro.faults.parallel`.
"""

from repro.perf.cache import (
    CacheStats,
    GOLDEN_CACHE,
    GoldenRunCache,
    cost_model_key,
    module_fingerprint,
)
from repro.perf.pool import POOL_REGISTRY, PoolRegistry, WarmPool

__all__ = [
    "CacheStats",
    "GOLDEN_CACHE",
    "GoldenRunCache",
    "cost_model_key",
    "module_fingerprint",
    "POOL_REGISTRY",
    "PoolRegistry",
    "WarmPool",
]
