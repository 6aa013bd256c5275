"""The one trace reader, and its CLI: ``python -m repro.obs.query``.

A trace is append-only evidence; answering "which trials on board b-3
alarmed between t=40s and t=80s, and how long did their recoveries
take?" by re-scanning the whole event list per question does not scale
to the mission-control service the ROADMAP aims at.  This module builds
a :class:`TraceIndex` in one pass — events partitioned by kind, by trial,
by board and by campaign segment, and every fleet decision replayed
tick by tick — and answers every question from it, as do the report
and the exporter:

- :meth:`TraceIndex.filter` — compose kind / trial / board / span /
  time-window / seq-range predicates over indexed candidates;
- :meth:`TraceIndex.span_tree` — reconstruct the causal
  campaign → trial → attempt hierarchy from :class:`~repro.obs.spans.SpanStart`
  / :class:`~repro.obs.spans.SpanEnd` pairs, with every non-span event
  attributed to its innermost enclosing span;
- :meth:`TraceIndex.latency_percentiles` — recovery / attempt latency
  quantiles through the exact fixed-bucket histograms of
  :attr:`TraceIndex.rollup`, the whole trace's fold.

The CLI mirrors the API::

    python -m repro.obs.query trace.jsonl --kind trial-end --trial 7
    python -m repro.obs.query trace.jsonl --board b-3 --t-min 40 --t-max 80
    python -m repro.obs.query trace.jsonl --tree
    python -m repro.obs.query trace.jsonl --percentiles --json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import ConfigError
from repro.obs.aggregate import FleetReplay, Rollup
from repro.obs.events import (
    CampaignEnd,
    CampaignStart,
    Event,
    FleetDecision,
    Injection,
    RecoveryDone,
    TrialEnd,
    read_trace,
)
from repro.obs.spans import SpanEnd, SpanStart

#: Latency histograms the percentile query surfaces, in render order.
LATENCY_METRICS = (
    "recovery.latency_s",
    "recovery.attempt_latency_s",
)


@dataclass
class SpanNode:
    """One reconstructed span with its children and attributed events."""

    span: str
    parent: str
    name: str
    index: int
    detail: str = ""
    status: str = ""
    cycles: int = 0
    count: int = 0
    start_seq: int = -1
    end_seq: int = -1
    children: list["SpanNode"] = field(default_factory=list)
    events: list[tuple[int, Event]] = field(default_factory=list)

    @property
    def closed(self) -> bool:
        return self.end_seq >= 0

    def walk(self):
        """Yield this node and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def as_dict(self) -> dict:
        return {
            "span": self.span,
            "parent": self.parent,
            "name": self.name,
            "index": self.index,
            "detail": self.detail,
            "status": self.status,
            "cycles": self.cycles,
            "count": self.count,
            "n_events": len(self.events),
            "children": [child.as_dict() for child in self.children],
        }


def _board_ids(event: Event) -> set[str]:
    """Board ids an event mentions (FleetDecision membership strings,
    plus any event carrying a scalar ``board_id`` field — queue sheds
    and power cycles from the sharded service)."""
    if isinstance(event, FleetDecision):
        return {*event.alarm_ids(), *event.quarantined_ids(),
                *event.released_ids()}
    board_id = getattr(event, "board_id", None)
    return {board_id} if isinstance(board_id, str) else set()


def _site_label(event: Injection) -> str:
    if not event.fired:
        return "(missed)"
    if event.target == "memory":
        return f"heap[{event.location}]"
    return str(event.location)


#: The start of a segment no :class:`CampaignStart` announced.
UNANNOUNCED = CampaignStart(program="?", func="?", n_trials=0, target="?")


@dataclass
class CampaignSegment:
    """One campaign's stretch of a trace, ``start`` to ``end``: its
    :meth:`Rollup.write` fold and, by trial index, only the per-trial
    facts a rollup does not keep.  Trial events outside any announced
    campaign (a bare supervisor loop) gather in an :data:`UNANNOUNCED`
    segment.
    """

    start: CampaignStart = UNANNOUNCED
    end: CampaignEnd | None = None
    rollup: Rollup = field(default_factory=Rollup)
    outcomes: dict[int, str] = field(default_factory=dict)
    recovered: dict[int, float] = field(default_factory=dict)
    pruned: set[int] = field(default_factory=set)
    sites: dict[int, str] = field(default_factory=dict)

    def write(self, event: Event, seq: int) -> None:
        self.rollup.write(event, seq)
        if isinstance(event, Injection):
            self.sites[event.trial] = _site_label(event)
            if event.pruned:
                self.pruned.add(event.trial)
        elif isinstance(event, TrialEnd):
            self.outcomes[event.trial] = event.outcome
        elif isinstance(event, RecoveryDone) and event.recovered:
            self.recovered[event.trial] = event.latency_s
        elif isinstance(event, CampaignEnd):
            self.end = event

    @property
    def cut(self) -> bool:
        """Announced but never ended: the trace stops mid-campaign."""
        return self.start is not UNANNOUNCED and self.end is None

    @property
    def site_outcomes(self) -> dict[str, dict[str, int]]:
        """Outcome counts per injection site."""
        per_site: dict[str, dict[str, int]] = {}
        for trial, outcome in self.outcomes.items():
            site = self.sites.get(trial)
            if site is not None:
                counts = per_site.setdefault(site, {})
                counts[outcome] = counts.get(outcome, 0) + 1
        return per_site


class TraceIndex:
    """Event stream indexed by kind, trial, board, campaign and span.

    Built in one pass from ``(seq, event)`` pairs (the shape
    :func:`~repro.obs.events.read_trace` returns): ``segments`` split
    the stream at each :class:`CampaignStart` and :class:`CampaignEnd`,
    and ``fleet`` replays every :class:`FleetDecision`.  Filters start
    from the narrowest index, so they never rescan the full stream.
    """

    def __init__(self, pairs: list[tuple[int, Event]]) -> None:
        self.pairs = list(pairs)
        self.by_kind: dict[str, list[tuple[int, Event]]] = {}
        self.by_trial: dict[int, list[tuple[int, Event]]] = {}
        self.by_board: dict[str, list[tuple[int, Event]]] = {}
        self.segments: list[CampaignSegment] = []
        self.fleet = FleetReplay()
        self._outside = Rollup()
        self._roots: list[SpanNode] | None = None
        self._nodes: dict[str, SpanNode] = {}
        segment: CampaignSegment | None = None
        for seq, event in self.pairs:
            self.by_kind.setdefault(event.kind, []).append((seq, event))
            trial = getattr(event, "trial", None)
            if trial is not None:
                self.by_trial.setdefault(int(trial), []).append((seq, event))
            for board_id in _board_ids(event):
                self.by_board.setdefault(board_id, []).append((seq, event))
            if isinstance(event, CampaignStart):
                segment = CampaignSegment(start=event)
                self.segments.append(segment)
            elif segment is None and trial is not None:
                segment = CampaignSegment()
                self.segments.append(segment)
            (segment or self._outside).write(event, seq)
            if isinstance(event, CampaignEnd):
                segment = None
            elif isinstance(event, FleetDecision):
                self.fleet.add(event)

    @classmethod
    def from_events(cls, events) -> "TraceIndex":
        """Index a bare event list (seq = list position)."""
        return cls(list(enumerate(events)))

    @classmethod
    def from_file(cls, path) -> "TraceIndex":
        return cls(read_trace(path))

    @property
    def events(self) -> list[Event]:
        return [event for _, event in self.pairs]

    @cached_property
    def rollup(self) -> Rollup:
        """The whole trace's fold: every segment's rollup, the events
        outside them and the fleet replay's per-tick entries, merged."""
        rollup = Rollup()
        for part in (*(s.rollup for s in self.segments), self._outside,
                     self.fleet.rollup()):
            rollup.merge(part)
        return rollup

    def kinds(self) -> dict[str, int]:
        """Event count per kind (the trace's shape at a glance)."""
        return {
            kind: len(pairs) for kind, pairs in sorted(self.by_kind.items())
        }

    # -- filtering -------------------------------------------------------------

    def filter(
        self,
        kinds=None,
        trial: int | None = None,
        board: str | None = None,
        span: str | None = None,
        t_min: float | None = None,
        t_max: float | None = None,
        seq_min: int | None = None,
        seq_max: int | None = None,
    ) -> list[tuple[int, Event]]:
        """Indexed conjunction of predicates, results in trace order.

        ``span`` restricts to events attributed to that span or any
        descendant (span start/end pairs included).  Time-window
        predicates apply to events carrying a simulated time ``t``;
        events without one never match a time-bounded query.
        """
        # Start from the narrowest applicable index.
        if trial is not None:
            candidates = self.by_trial.get(trial, [])
        elif board is not None:
            candidates = self.by_board.get(board, [])
        elif kinds is not None and len(kinds) == 1:
            candidates = self.by_kind.get(next(iter(kinds)), [])
        else:
            candidates = self.pairs

        kind_set = set(kinds) if kinds is not None else None
        span_seqs = self._span_seqs(span) if span is not None else None

        out = []
        for seq, event in candidates:
            if kind_set is not None and event.kind not in kind_set:
                continue
            if trial is not None and getattr(event, "trial", None) != trial:
                continue
            if board is not None and board not in _board_ids(event):
                continue
            if span_seqs is not None and seq not in span_seqs:
                continue
            if seq_min is not None and seq < seq_min:
                continue
            if seq_max is not None and seq > seq_max:
                continue
            if t_min is not None or t_max is not None:
                t = getattr(event, "t", None)
                if t is None:
                    continue
                if t_min is not None and t < t_min:
                    continue
                if t_max is not None and t > t_max:
                    continue
            out.append((seq, event))
        return out

    def _span_seqs(self, span: str) -> set[int]:
        node = self.span(span)
        if node is None:
            return set()
        seqs: set[int] = set()
        for sub in node.walk():
            if sub.start_seq >= 0:
                seqs.add(sub.start_seq)
            if sub.end_seq >= 0:
                seqs.add(sub.end_seq)
            seqs.update(seq for seq, _ in sub.events)
        return seqs

    # -- span tree -------------------------------------------------------------

    def span_tree(self) -> list[SpanNode]:
        """Reconstruct the causal span forest (roots in trace order).

        Span starts open nodes, parented by their explicit ``parent``
        id; span ends close them and record status / cycles / count.
        Every non-span event between a span's start and end is
        attributed to the innermost open span, so walking the tree
        recovers exactly which injections, decisions and recoveries
        happened *inside* which trial of which campaign.
        """
        if self._roots is not None:
            return self._roots
        roots: list[SpanNode] = []
        nodes: dict[str, SpanNode] = {}
        stack: list[SpanNode] = []
        for seq, event in self.pairs:
            if isinstance(event, SpanStart):
                node = SpanNode(
                    span=event.span, parent=event.parent, name=event.name,
                    index=event.index, detail=event.detail, start_seq=seq,
                )
                nodes[event.span] = node
                parent = nodes.get(event.parent)
                if parent is not None:
                    parent.children.append(node)
                else:
                    roots.append(node)
                stack.append(node)
            elif isinstance(event, SpanEnd):
                node = nodes.get(event.span)
                if node is not None:
                    node.status = event.status
                    node.cycles = event.cycles
                    node.count = event.count
                    node.end_seq = seq
                # Well-nested streams close the top of the stack; a
                # truncated trace may close out of order — unwind to the
                # matching frame so attribution stays sane.
                while stack and stack[-1].span != event.span:
                    stack.pop()
                if stack:
                    stack.pop()
            elif stack:
                stack[-1].events.append((seq, event))
        self._roots = roots
        self._nodes = nodes
        return roots

    def span(self, span_id: str) -> SpanNode | None:
        """Look up one span node by (possibly abbreviated) id."""
        self.span_tree()
        node = self._nodes.get(span_id)
        if node is not None:
            return node
        matches = [
            n for sid, n in self._nodes.items() if sid.startswith(span_id)
        ]
        return matches[0] if len(matches) == 1 else None

    # -- aggregates ------------------------------------------------------------

    def latency_percentiles(self) -> dict[str, dict]:
        """Exact-bucket latency summaries (recovery + ladder attempts)."""
        histograms = self.rollup.histograms
        return {
            name: histograms[name].summary()
            for name in LATENCY_METRICS
            if name in histograms
        }


# -- rendering -----------------------------------------------------------------


def render_span_tree(roots: list[SpanNode], max_events: int = 0) -> str:
    """Indented text rendering of a span forest."""
    if not roots:
        return "(no spans in trace)"
    lines: list[str] = []

    def visit(node: SpanNode, depth: int) -> None:
        pad = "  " * depth
        status = node.status or ("open" if not node.closed else "ok")
        suffix = f" [{len(node.events)} events]" if node.events else ""
        detail = f" {node.detail}" if node.detail else ""
        lines.append(
            f"{pad}{node.name}#{node.index} {node.span}{detail} "
            f"status={status}"
            + (f" cycles={node.cycles}" if node.cycles else "")
            + (f" count={node.count}" if node.count else "")
            + suffix
        )
        for seq, event in node.events[:max_events]:
            lines.append(f"{pad}  · seq={seq} {event.kind}")
        for child in node.children:
            visit(child, depth + 1)

    for root in roots:
        visit(root, 0)
    return "\n".join(lines)


def render_events(pairs: list[tuple[int, Event]], limit: int = 0) -> str:
    shown = pairs[:limit] if limit else pairs
    lines = [
        f"seq={seq} {json.dumps(event.to_dict(), sort_keys=True)}"
        for seq, event in shown
    ]
    if limit and len(pairs) > limit:
        lines.append(f"... ({len(pairs) - limit} more)")
    return "\n".join(lines) if lines else "(no matching events)"


def run_cli(main) -> None:  # pragma: no cover - exercised via CLI smoke
    """Exit with ``main()``'s code.  A pager or ``head`` closing the pipe
    mid-render is not an error."""
    try:
        code = main()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.query",
        description="Query a JSONL event trace: filter, span tree, "
        "latency percentiles.",
    )
    parser.add_argument("trace", help="JSONL trace file (JsonlSink output)")
    parser.add_argument(
        "--kind", action="append", dest="kinds", metavar="KIND",
        help="keep only this event kind (repeatable)",
    )
    parser.add_argument("--trial", type=int, help="keep one trial's events")
    parser.add_argument("--board", help="keep events mentioning this board")
    parser.add_argument(
        "--span", help="keep events inside this span id (prefix ok)"
    )
    parser.add_argument("--t-min", type=float, help="window start (sim s)")
    parser.add_argument("--t-max", type=float, help="window end (sim s)")
    parser.add_argument(
        "--tree", action="store_true",
        help="render the reconstructed span tree instead of events",
    )
    parser.add_argument(
        "--percentiles", action="store_true",
        help="render exact-bucket latency percentiles instead of events",
    )
    parser.add_argument(
        "--kinds-summary", action="store_true",
        help="render event counts per kind instead of events",
    )
    parser.add_argument(
        "--limit", type=int, default=0, help="cap rendered event lines"
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    args = parser.parse_args(argv)
    try:
        index = TraceIndex.from_file(args.trace)
    except (OSError, ConfigError) as exc:
        print(f"error: cannot read trace {args.trace!r}: {exc}",
              file=sys.stderr)
        return 1

    if args.tree:
        roots = index.span_tree()
        if args.json:
            print(json.dumps([r.as_dict() for r in roots], indent=2))
        else:
            print(render_span_tree(roots))
        return 0
    if args.percentiles:
        summaries = index.latency_percentiles()
        if args.json:
            print(json.dumps(summaries, indent=2))
        else:
            if not summaries:
                print("(no latency observations in trace)")
            for name, s in summaries.items():
                print(
                    f"{name}: count={s['count']} p50={s['p50']:.3e} "
                    f"p90={s['p90']:.3e} p99={s['p99']:.3e} "
                    f"max={s['max']:.3e}"
                )
        return 0
    if args.kinds_summary:
        counts = index.kinds()
        if args.json:
            print(json.dumps(counts, indent=2))
        else:
            for kind, n in counts.items():
                print(f"{kind}: {n}")
        return 0

    pairs = index.filter(
        kinds=args.kinds, trial=args.trial, board=args.board,
        span=args.span, t_min=args.t_min, t_max=args.t_max,
    )
    if args.json:
        print(json.dumps(
            [{"seq": seq, **event.to_dict()} for seq, event in pairs],
            indent=2,
        ))
    else:
        print(render_events(pairs, limit=args.limit))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI smoke
    run_cli(main)
