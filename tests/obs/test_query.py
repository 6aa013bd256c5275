"""Query-engine tests: indexed filters, span-tree reconstruction, CLI.

The acceptance check lives here: the query engine rebuilds the full
campaign → trial → attempt span tree from a JSONL trace written by a
span-traced supervised campaign.
"""

import json

import pytest

from repro.faults.campaign import Campaign
from repro.obs.events import (
    DetectorDecision,
    FleetDecision,
    InMemorySink,
    JsonlSink,
    Tracer,
    TrialEnd,
    TrialStart,
)
from repro.obs.query import (
    TraceIndex,
    main,
    render_events,
    render_span_tree,
)
from repro.obs.spans import SpanEnd, SpanStart, span_id
from repro.perf.cache import GOLDEN_CACHE
from repro.recover.supervisor import run_supervised_campaign
from repro.workloads.irprograms import PROGRAMS, build_program


@pytest.fixture(scope="module")
def traced_campaign(tmp_path_factory):
    """One span-traced supervised campaign written to JSONL."""
    name = "dot"
    campaign = Campaign(
        module=build_program(name),
        func_name=name,
        args=PROGRAMS[name].default_args,
        n_trials=16,
    )
    GOLDEN_CACHE.clear()
    path = tmp_path_factory.mktemp("query") / "trace.jsonl"
    sink = InMemorySink()
    with JsonlSink(path) as jsonl:
        run_supervised_campaign(
            campaign, seed=5, tracer=Tracer(sink, jsonl), trace_spans=True
        )
    return path, sink.events


class TestFilter:
    def _index(self):
        events = [
            TrialStart(trial=0),
            TrialEnd(trial=0, outcome="sdc", cycles=10, rel_error=1.0),
            TrialStart(trial=1),
            TrialEnd(trial=1, outcome="benign", cycles=12, rel_error=0.0),
            DetectorDecision(
                t=3.0, score=0.5, threshold=1.0, anomalous=False, hits=0,
                window_len=8, window_full=True, alarm=False,
            ),
            FleetDecision(
                t=7.0, n_boards=2, n_scored=2, n_anomalous=1,
                alarms="b-1", quarantined="", released="",
                max_score=2.0, warming_up=False,
            ),
        ]
        return TraceIndex.from_events(events)

    def test_filter_by_kind(self):
        index = self._index()
        pairs = index.filter(kinds=["trial-end"])
        assert len(pairs) == 2
        assert all(e.kind == "trial-end" for _, e in pairs)

    def test_filter_by_trial(self):
        index = self._index()
        pairs = index.filter(trial=1)
        assert [e.kind for _, e in pairs] == ["trial-start", "trial-end"]
        assert all(e.trial == 1 for _, e in pairs)

    def test_filter_by_board(self):
        index = self._index()
        pairs = index.filter(board="b-1")
        assert len(pairs) == 1
        assert pairs[0][1].kind == "fleet-decision"
        assert index.filter(board="b-0") == []

    def test_filter_by_time_window(self):
        index = self._index()
        pairs = index.filter(t_min=5.0)
        assert [e.kind for _, e in pairs] == ["fleet-decision"]
        # Untimed events never match a time-bounded query.
        assert index.filter(t_min=0.0) == index.filter(kinds=None, t_min=0.0)
        assert len(index.filter(t_min=0.0)) == 2

    def test_conjunction(self):
        index = self._index()
        pairs = index.filter(kinds=["trial-end"], trial=0)
        assert len(pairs) == 1
        assert pairs[0][1].outcome == "sdc"

    def test_kinds_summary(self):
        counts = self._index().kinds()
        assert counts["trial-end"] == 2
        assert counts["fleet-decision"] == 1


class TestSpanTree:
    def test_reconstructs_campaign_trial_attempt_tree(self, traced_campaign):
        _, events = traced_campaign
        index = TraceIndex.from_events(events)
        roots = index.span_tree()
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "campaign"
        assert root.closed
        trials = [c for c in root.children if c.name == "trial"]
        assert [t.index for t in trials] == list(range(16))
        # Every trial id re-derives from the root (the span contract).
        for trial in trials:
            assert trial.span == span_id(root.span, "trial", trial.index)
            assert trial.closed
        # Attempt spans nest under their trial; failures recovered by the
        # supervisor produce at least one.
        attempts = [
            node for node in root.walk() if node.name == "attempt"
        ]
        for attempt in attempts:
            assert attempt.parent in {t.span for t in trials}

    def test_events_attributed_to_innermost_span(self, traced_campaign):
        _, events = traced_campaign
        index = TraceIndex.from_events(events)
        root = index.span_tree()[0]
        trials = [c for c in root.children if c.name == "trial"]
        for trial in trials:
            kinds = [e.kind for _, e in trial.events]
            assert "trial-start" in kinds
            assert "trial-end" in kinds

    def test_span_lookup_by_prefix(self, traced_campaign):
        _, events = traced_campaign
        index = TraceIndex.from_events(events)
        root = index.span_tree()[0]
        assert index.span(root.span) is root
        assert index.span(root.span[:10]) is root
        assert index.span("nonexistent-span-id") is None

    def test_filter_by_span_includes_descendants(self, traced_campaign):
        _, events = traced_campaign
        index = TraceIndex.from_events(events)
        root = index.span_tree()[0]
        trial0 = root.children[0]
        pairs = index.filter(span=trial0.span)
        kinds = {e.kind for _, e in pairs}
        assert "span-start" in kinds and "span-end" in kinds
        assert "trial-end" in kinds

    def test_unclosed_span_stays_open(self):
        events = [
            SpanStart(span="aa", parent="", name="campaign", index=0),
            SpanStart(span="bb", parent="aa", name="trial", index=0),
            SpanEnd(span="aa"),
        ]
        roots = TraceIndex.from_events(events).span_tree()
        assert roots[0].closed
        assert not roots[0].children[0].closed

    def test_render_span_tree(self, traced_campaign):
        _, events = traced_campaign
        roots = TraceIndex.from_events(events).span_tree()
        text = render_span_tree(roots)
        assert "campaign#" in text
        assert "trial#0" in text
        assert render_span_tree([]) == "(no spans in trace)"


class TestLatencyPercentiles:
    def test_exact_bucket_summaries(self, traced_campaign):
        _, events = traced_campaign
        index = TraceIndex.from_events(events)
        summaries = index.latency_percentiles()
        assert "recovery.latency_s" in summaries
        s = summaries["recovery.latency_s"]
        assert s["count"] > 0
        assert s["p50"] <= s["p99"] <= s["max"] or s["count"] == 0


class TestCli:
    def test_tree_output(self, traced_campaign, capsys):
        path, _ = traced_campaign
        assert main([str(path), "--tree"]) == 0
        out = capsys.readouterr().out
        assert "campaign#" in out

    def test_filter_json(self, traced_campaign, capsys):
        path, _ = traced_campaign
        assert main([str(path), "--kind", "trial-end", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 16
        assert all(r["kind"] == "trial-end" for r in rows)

    def test_percentiles(self, traced_campaign, capsys):
        path, _ = traced_campaign
        assert main([str(path), "--percentiles", "--json"]) == 0
        summaries = json.loads(capsys.readouterr().out)
        assert isinstance(summaries, dict)

    def test_kinds_summary(self, traced_campaign, capsys):
        path, _ = traced_campaign
        assert main([str(path), "--kinds-summary", "--json"]) == 0
        counts = json.loads(capsys.readouterr().out)
        assert counts["trial-end"] == 16

    def test_missing_file(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent.jsonl")]) == 1
        assert "cannot read trace" in capsys.readouterr().err

    def test_trace_cut_mid_line(self, traced_campaign, tmp_path, capsys):
        path, _ = traced_campaign
        lines = path.read_text().splitlines(keepends=True)
        torn = tmp_path / "torn.jsonl"
        torn.write_text("".join(lines[:10]) + lines[10][:20])
        assert main([str(torn), "--tree"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read trace")
        assert "unparseable trace line" in err

    def test_limit_renders_ellipsis(self):
        pairs = [(i, TrialStart(trial=i)) for i in range(5)]
        text = render_events(pairs, limit=2)
        assert "(3 more)" in text
