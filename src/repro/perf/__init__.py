"""Performance support: golden-lookup counts and the perf report.

Campaign wall-clock is the binding constraint on how many fault-injection
trials, DMR levels and workloads the experiment suite can afford (see
ROADMAP).  This package holds the cross-cutting perf machinery:

* :mod:`repro.perf.cache` — the counts of golden-run lookups
  (:data:`GOLDEN_CACHE`; each run itself is kept in its module's record
  and dies with the module);
* :mod:`repro.perf.report` — the machine-readable ``BENCH_perf.json``
  writer that gives subsequent PRs a perf trajectory to regress against,
  plus the ``python -m repro.perf.report`` summary CLI.  It is not
  imported here, so running it with ``-m`` loads it once.

The campaign executor itself is :func:`repro.faults.campaign.run_plan`.
"""

from repro.perf.cache import CacheStats, GOLDEN_CACHE, module_fingerprint

__all__ = [
    "CacheStats",
    "GOLDEN_CACHE",
    "module_fingerprint",
]
