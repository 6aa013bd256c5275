"""The repository benchmark: campaign and mission-control workloads.

See ``benchmarks/suite/README.md`` and ``BENCHMARK.json`` at the root.
"""
