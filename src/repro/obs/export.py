"""Metrics export: Prometheus text exposition and versioned JSON snapshots.

Two consumers need the same numbers in different shapes: a scrape
endpoint wants the Prometheus text format, and the repo's own CLIs
(``python -m repro.obs.report --metrics``) want a stable JSON schema
instead of poking at rollup internals.  This module is the one place
both shapes are produced from a :class:`~repro.obs.aggregate.Rollup`:

- :func:`export_snapshot` — a rollup as a versioned JSON document
  (``schema`` = :data:`SNAPSHOT_SCHEMA`) carrying every histogram's
  buckets, so the document restores loss-free;
  :func:`load_snapshot` validates the version on the way back in.
- :func:`to_prometheus` — the text exposition format: counters
  verbatim, histograms as true Prometheus ``histogram`` series
  (cumulative ``_bucket{le=...}`` + ``_sum`` + ``_count``).

The CLI exports either a trace (read by
:class:`~repro.obs.query.TraceIndex`, whose :attr:`~repro.obs.query.TraceIndex.rollup`
is the whole trace's fold) or a previously written JSON snapshot::

    python -m repro.obs.export --from-trace trace.jsonl
    python -m repro.obs.export --from-trace trace.jsonl --format json
    python -m repro.obs.export --from-snapshot metrics.json
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from repro.errors import ConfigError
from repro.obs.aggregate import Rollup
from repro.obs.metrics import Histogram
from repro.obs.query import TraceIndex, run_cli

#: Version tag stamped on every exported snapshot; bump on shape change.
SNAPSHOT_SCHEMA = "repro.metrics/v1"


# -- JSON snapshot -------------------------------------------------------------


def export_snapshot(rollup: Rollup) -> dict:
    """Versioned JSON-ready snapshot of every counter and histogram.

    The body is :meth:`Rollup.snapshot` plus the ``schema`` tag, the
    v1 shape's ``gauges`` section (always empty: a rollup has none) and,
    per histogram, the bucket data (``bounds`` / ``bucket_counts`` /
    ``nonfinite`` / ``exact_total``) a plain summary drops.
    """
    body = rollup.snapshot()
    for name, hist in rollup.histograms.items():
        body["histograms"][name] = {
            **body["histograms"][name],
            "bounds": list(hist.bounds),
            "bucket_counts": list(hist.bucket_counts),
            "nonfinite": hist.nonfinite,
            # The exact rational sum, as "p/q" — floats are dyadic
            # rationals, so this round-trips without rounding and a
            # restored histogram merge-compares equal to the original.
            "exact_total": str(hist._exact_total),
        }
    return {
        "schema": SNAPSHOT_SCHEMA,
        "counters": body["counters"],
        "gauges": {},
        "histograms": body["histograms"],
    }


def load_snapshot(document: dict) -> dict:
    """Validate a snapshot document's schema tag and return it."""
    schema = document.get("schema")
    if schema != SNAPSHOT_SCHEMA:
        raise ConfigError(
            f"unsupported metrics snapshot schema {schema!r} "
            f"(expected {SNAPSHOT_SCHEMA!r})"
        )
    for key in ("counters", "gauges", "histograms"):
        if not isinstance(document.get(key), dict):
            raise ConfigError(f"snapshot missing {key!r} section")
    return document


# -- Prometheus text exposition ------------------------------------------------


def _metric_name(name: str, namespace: str) -> str:
    safe = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    return f"{namespace}_{safe}" if namespace else safe


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _histogram_lines(name: str, hist: Histogram) -> list[str]:
    lines = [f"# TYPE {name} histogram"]
    cumulative = 0
    for bound, count in zip(hist.bounds, hist.bucket_counts):
        cumulative += count
        lines.append(f'{name}_bucket{{le="{_fmt(bound)}"}} {cumulative}')
    cumulative += hist.bucket_counts[-1]
    lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative}')
    lines.append(f"{name}_sum {_fmt(hist.total)}")
    lines.append(f"{name}_count {hist.count}")
    return lines


def to_prometheus(rollup: Rollup, namespace: str = "repro") -> str:
    """Render a rollup in the Prometheus text exposition format.

    Counters map directly; histograms become real ``histogram`` series
    with cumulative ``le`` buckets (exact: the scrape-side sum of shards
    equals the global series).
    """
    lines: list[str] = []
    for name, value in sorted(rollup.counters.items()):
        metric = _metric_name(name, namespace)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {value}")
    for name, hist in sorted(rollup.histograms.items()):
        lines.extend(_histogram_lines(_metric_name(name, namespace), hist))
    return "\n".join(lines) + ("\n" if lines else "")


# -- sources -------------------------------------------------------------------


def registry_from_trace(path) -> Rollup:
    """A JSONL trace's whole-trace fold, :attr:`TraceIndex.rollup`; a
    sharded fleet's trace gives the same at any shard count."""
    return TraceIndex.from_file(path).rollup


def registry_from_snapshot(document: dict) -> Rollup:
    """Rebuild a rollup from a snapshot, loss-free.

    Raises :class:`ConfigError` naming the first gauge or bucketless
    histogram (a v1 document written from a reservoir histogram), which
    a rollup cannot hold: nothing is restored silently empty.
    """
    document = load_snapshot(document)
    for name in document["gauges"]:  # a rollup holds no gauges
        raise ConfigError(f"gauge {name!r} cannot be restored into a rollup")
    rollup = Rollup(counters={
        name: int(value) for name, value in document["counters"].items()
    })
    for name, summary in document["histograms"].items():
        if "bounds" not in summary:
            raise ConfigError(
                f"histogram {name!r} has no bucket bounds and cannot be "
                "restored"
            )
        hist = Histogram(summary["bounds"])
        hist.bucket_counts = list(summary["bucket_counts"])
        hist.count = int(summary["count"])
        hist.nonfinite = int(summary.get("nonfinite", 0))
        if hist.count:
            hist.min = float(summary["min"])
            hist.max = float(summary["max"])
        exact = summary.get("exact_total")
        if exact is not None:
            hist._exact_total = Fraction(exact)
        else:
            hist._exact_total = Fraction(float(summary["mean"])) * hist.count
        rollup.histograms[name] = hist
    return rollup


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.export",
        description="Export metrics as Prometheus text or a JSON snapshot.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--from-trace", metavar="TRACE",
        help="derive metrics from a JSONL event trace",
    )
    source.add_argument(
        "--from-snapshot", metavar="JSON",
        help="load a previously exported JSON snapshot",
    )
    parser.add_argument(
        "--format", choices=("prometheus", "json"), default="prometheus",
        help="output format (default: prometheus text exposition)",
    )
    parser.add_argument(
        "--namespace", default="repro",
        help="metric name prefix for prometheus output",
    )
    args = parser.parse_args(argv)
    try:
        if args.from_trace:
            rollup = registry_from_trace(args.from_trace)
        else:
            with open(args.from_snapshot, "r", encoding="utf-8") as fh:
                rollup = registry_from_snapshot(json.load(fh))
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(f"error: cannot load metrics source: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(export_snapshot(rollup), indent=2))
    else:
        sys.stdout.write(to_prometheus(rollup, namespace=args.namespace))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI smoke
    run_cli(main)
