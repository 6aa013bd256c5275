"""Order statistics and the host-speed clock the suite measures with.

The host this suite was sized on changes speed by up to 2x for seconds
to minutes at a time (a fixed pure-Python loop read 0.25 s and 0.47 s
within one minute, wall and CPU time alike): medians of six consecutive one-second
loops spread by 17 % (interquartile range over median), far wider than
any useful regression bound.
:class:`HostClock` therefore interleaves a fixed calibration kernel with
the timed work and converts every measured interval to *reference
seconds*: the interval scaled by how much slower than
:data:`REFERENCE_KERNEL_S` the kernel ran just before and just after it.
The kernel is plain Python that calls nothing in ``repro``, so a change
to the program under test moves the measured work and never the
calibration.  Raw seconds are kept next to every normalised value.

Calibration follows host phases that last longer than a unit of work,
and only roughly: in two slow phases the kernel slowed 1.7x and 1.2x
while the work beside it slowed 1.5x and 1.3x.  Bursts shorter
than a unit make single units take 1.3-2x their neighbours.  The worker
therefore reports per-unit medians over the repeats, which neither
kind of error moves much.  Over ten runs with different seeds,
normalising cut campaign-pruned's spread between runs from 25-30 % raw
to 3 %.  The kernel does not register every slowdown, though: in some
hours it widened the spread of campaign-plain and the services by a few
points (campaign-plain 8 % raw, 13 % normalised).
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from dataclasses import dataclass, field

#: One calibration sample is the fastest of this many kernel runs (a run
#: hit by a burst of interference reads slow; the fastest one does not).
KERNEL_RUNS = 5
#: Iterations per kernel run (~1.2 ms each on the sizing host).
KERNEL_ITERATIONS = 6_400
#: ``KERNEL_RUNS`` x the fastest run's time that defines one reference
#: second: about what the sizing host reads in its quiet phases, so
#: reference seconds read close to that host's quiet-phase seconds.
REFERENCE_KERNEL_S = 0.006
#: Recalibrate before a timed unit when the last sample is this old.
CALIBRATE_EVERY_S = 0.25


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them.

    One value is its own quartiles; an empty list is all zeros.
    """
    if not values:
        return 0.0, 0.0, 0.0
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(values: list[float], value: float | None = None) -> dict:
    """The reported ``value`` (default: the median), the samples' median,
    quartiles and count, and the samples themselves."""
    q1, median, q3 = quartiles(values)
    return {
        "value": median if value is None else value,
        "median": median, "q1": q1, "q3": q3, "n": len(values),
        "samples": list(values),
    }


def nearest_rank(values: list[float], p: float) -> float:
    """Nearest-rank percentile: always an observed sample (0.0 if empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _kernel(n: int = KERNEL_ITERATIONS) -> int:
    env: dict[int, int] = {}
    acc = 0
    for i in range(n):
        key = i & 63
        env[key] = (env.get(key, 0) + i * 2654435761) & 0xFFFFFFFF
        acc ^= env[key]
    return acc


@dataclass
class HostClock:
    """Times units of work and normalises them by nearby kernel samples.

    Attributes:
        samples: ``(end, kernel_seconds)`` calibration samples, in time
            order.
    """

    samples: list[tuple[float, float]] = field(default_factory=list)

    def calibrate(self) -> float:
        """Take one kernel sample; returns (and records) it."""
        runs = []
        for _ in range(KERNEL_RUNS):
            t0 = time.perf_counter()
            _kernel()
            runs.append(time.perf_counter() - t0)
        sample = min(runs) * KERNEL_RUNS
        self.samples.append((time.perf_counter(), sample))
        return sample

    def time(self, fn, *args, **kwargs):
        """Call ``fn``; returns ``(result, (t0, t1))``.

        Calibrates first when the last sample is older than
        :data:`CALIBRATE_EVERY_S`.  Call :meth:`calibrate` once after the
        last unit so every unit has a sample on both sides.
        """
        if (
            not self.samples
            or time.perf_counter() - self.samples[-1][0] >= CALIBRATE_EVERY_S
        ):
            self.calibrate()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        t1 = time.perf_counter()
        return result, (t0, t1)

    def factor(self, t0: float, t1: float) -> float:
        """Host slowness over ``[t0, t1]`` relative to the reference.

        The mean of the last kernel sample finished before ``t0`` and the
        first finished after ``t1``, over :data:`REFERENCE_KERNEL_S`.
        """
        if not self.samples:
            raise ValueError("no calibration samples recorded")
        ends = [end for end, _ in self.samples]
        before = self.samples[max(bisect.bisect_right(ends, t0) - 1, 0)][1]
        after = self.samples[min(bisect.bisect_left(ends, t1),
                                 len(self.samples) - 1)][1]
        return (before + after) / 2.0 / REFERENCE_KERNEL_S

    def normalised(self, t0: float, t1: float) -> float:
        """``t1 - t0`` in reference seconds."""
        return (t1 - t0) / self.factor(t0, t1)
