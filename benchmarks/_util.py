"""Shared helpers for the benchmark/experiment harness.

Every experiment writes its regenerated table both to stdout and to
``benchmarks/results/<experiment>.txt`` so the artifacts survive pytest's
output capture.  Result files are replaced atomically: a crash mid-write
leaves the previous file whole.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.perf.report import write_text_atomic

RESULTS_DIR = Path(__file__).parent / "results"


def bench_workers(default: int | None = None) -> int | None:
    """Worker count for campaign benchmarks.

    ``REPRO_BENCH_WORKERS`` overrides (0 or 1 means serial); otherwise
    ``default`` is returned, where ``None`` keeps the serial path.
    """
    raw = os.environ.get("REPRO_BENCH_WORKERS")
    if raw is None:
        return default
    workers = int(raw)
    return None if workers <= 1 else workers


def write_result(experiment_id: str, title: str, body: str) -> str:
    """Print and persist one experiment's regenerated table."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = f"== {experiment_id}: {title} ==\n{body.rstrip()}\n"
    write_text_atomic(RESULTS_DIR / f"{experiment_id}.txt", text)
    print("\n" + text)
    return text


def fmt_table(headers: list[str], rows: list[list[str]]) -> str:
    """Align a small text table."""
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(r) for r in rows)
    return "\n".join(out)
