"""Machine-readable perf trajectory: ``BENCH_perf.json``.

``benchmarks/bench_perf.py`` measures campaign throughput (serial vs
parallel), interpreter speed (fast path vs reference loop) and golden-cache
effectiveness, then writes one snapshot here.  Previous snapshots are kept
in a bounded ``history`` list so later PRs can regress against the
trajectory, not just the latest number.

``python -m repro.perf.report [path]`` prints a human summary of the
report — headline numbers, the trajectory of ``min_speedup`` and
``parallel_vs_serial`` across history, and the ``golden_cache`` and
``parallel.warm_pool`` sections the bench run stored.

:func:`write_text_atomic` is the one way the benchmarks write a result
file: a crash mid-write leaves the old file whole.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

SCHEMA_VERSION = 1

#: Snapshots retained in the trajectory (newest first).
MAX_HISTORY = 20


def load_perf_report(path: str | Path) -> dict | None:
    """Read an existing report; None when absent or unparseable."""
    path = Path(path)
    if not path.exists():
        return None
    try:
        report = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(report, dict):
        return None
    return report


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file beside it.

    The temporary file is moved over ``path`` with ``os.replace``, so a
    crash mid-write leaves the old file whole; on failure the temporary
    file is removed and the error re-raised.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_perf_report(
    path: str | Path, snapshot: dict, keep_history: int = MAX_HISTORY
) -> dict:
    """Write ``snapshot`` as the current measurement, rolling the old one
    into ``history``.  Returns the full report.

    History is append-only and bounded: the previous snapshot (minus its
    own ``history``) is prepended, every retained entry carries the
    ``schema`` version it was written under (entries predating schema
    stamps are backfilled with version 1), and the list is truncated to
    ``keep_history`` newest-first.

    The report is written with :func:`write_text_atomic`, so a crash
    mid-write leaves the old report whole.
    """
    path = Path(path)
    previous = load_perf_report(path)
    history: list[dict] = []
    if previous is not None:
        history = [
            {"schema": 1, **h} if "schema" not in h else h
            for h in previous.get("history", [])
            if isinstance(h, dict)
        ]
        rolled = {
            "schema": previous.get("schema", 1),
            **{k: v for k, v in previous.items()
               if k not in ("history", "schema")},
        }
        if len(rolled) > 1:
            history.insert(0, rolled)
    report = {
        "schema": SCHEMA_VERSION,
        **snapshot,
        "history": history[:keep_history],
    }
    write_text_atomic(
        path, json.dumps(report, indent=2, sort_keys=False) + "\n"
    )
    return report


# -- CLI -----------------------------------------------------------------------

_HEADLINES = (
    ("min_speedup", "fast-path speedup vs reference (min)", "x"),
    ("target_speedup", "fast-path speedup target", "x"),
    ("parallel_vs_serial", "parallel vs serial throughput", "x"),
    ("serial_trials_per_s", "serial campaign throughput", " trials/s"),
    ("parallel_trials_per_s", "parallel campaign throughput", " trials/s"),
    ("available_cpus", "CPUs available to the bench run", ""),
    ("workers", "workers used by the bench run", ""),
)


def _headline(snapshot: dict, key: str):
    """Find ``key`` at the top level or inside any dict-valued section."""
    if key in snapshot:
        return snapshot[key]
    for section in snapshot.values():
        if isinstance(section, dict) and key in section:
            return section[key]
    return None


#: Stored sections rendered verbatim, as (label, path into the report).
_SECTIONS = (
    ("golden_cache", ("golden_cache",)),
    ("parallel.warm_pool", ("parallel", "warm_pool")),
)


def format_report(report: dict | None) -> str:
    """Render a report as the CLI's text."""
    if report is None:
        return "no perf report found (run benchmarks/bench_perf.py)"
    lines = [
        f"perf report (schema {report.get('schema', '?')}, "
        f"{len(report.get('history', []))} history entries)"
    ]
    for key, label, unit in _HEADLINES:
        value = _headline(report, key)
        if value is not None:
            shown = f"{value:.2f}" if isinstance(value, float) else value
            lines.append(f"  {label}: {shown}{unit}")
    history = [h for h in report.get("history", []) if isinstance(h, dict)]
    for key in ("min_speedup", "parallel_vs_serial"):
        trail = [
            v for v in (
                _headline(snap, key) for snap in [report] + history
            ) if v is not None
        ]
        if len(trail) > 1:
            shown = " <- ".join(f"{v:.2f}" for v in trail[:8])
            lines.append(f"  {key} trajectory (newest first): {shown}")
    for label, keys in _SECTIONS:
        section = report
        for key in keys:
            section = section.get(key) if isinstance(section, dict) else None
        lines.append(f"{label}:")
        if isinstance(section, dict) and section:
            for name, value in sorted(section.items()):
                lines.append(f"  {name}: {value}")
        else:
            lines.append("  (not recorded)")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.report",
        description="Summarize BENCH_perf.json.",
    )
    parser.add_argument(
        "path", nargs="?", default="BENCH_perf.json",
        help="perf report to summarize (default: ./BENCH_perf.json)",
    )
    opts = parser.parse_args(argv)
    print(format_report(load_perf_report(opts.path)))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI smoke test
    try:
        code = main()
    except BrokenPipeError:
        # Downstream pager/head closed the pipe mid-render; not an error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)
