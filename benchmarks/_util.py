"""Shared helpers for the benchmark/experiment harness.

Every experiment writes its regenerated table both to stdout and to
``benchmarks/results/<experiment>.txt`` so the artifacts survive pytest's
output capture.  Result files are replaced atomically: a crash mid-write
leaves the previous file whole.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.perf.report import write_text_atomic

RESULTS_DIR = Path(__file__).parent / "results"

#: Interleaved rounds a timing gate takes the median of: one sample per
#: side flips on identical code.
GATE_ROUNDS = 7


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


def interleaved_ratios(slow, fast, rounds: int = GATE_ROUNDS) -> list[float]:
    """``rounds`` wall-time ratios ``slow() / fast()``.

    Each round times both sides once, back to back, alternating which
    side goes first, so host drift within a round hits both alike.
    """
    ratios = []
    for k in range(rounds):
        times = {}
        for side in (slow, fast) if k % 2 == 0 else (fast, slow):
            t0 = time.perf_counter()
            side()
            times[side] = time.perf_counter() - t0
        ratios.append(times[slow] / times[fast])
    return ratios
