"""Span tests: derived ids and byte-identical traced streams.

The load-bearing claim: span ids are pure functions of (parent, name,
index), so a span-traced campaign's stream is well formed, predictable
from its root, and leaves the campaign's results untouched.
"""

from dataclasses import replace

import pytest

from repro.faults.campaign import Campaign, run_campaign
from repro.ir.clone import clone_module
from repro.obs.events import InMemorySink, Tracer
from repro.obs.spans import (
    ROOT,
    SpanEnd,
    SpanScope,
    SpanStart,
    campaign_root,
    fleet_root,
    span_id,
)
from repro.perf.cache import GOLDEN_CACHE
from repro.workloads.irprograms import PROGRAMS, build_program

N_TRIALS = 24
SEED = 7


def _campaign(name="dot", **kwargs):
    module = build_program(name)
    return Campaign(
        module=module,
        func_name=name,
        args=PROGRAMS[name].default_args,
        n_trials=N_TRIALS,
        **kwargs,
    )


def _traced(campaign):
    """The traced stream of a cold run: the golden lookup is part of it,
    and a module keeps its golden run, so each run gets a fresh clone."""
    campaign = replace(campaign, module=clone_module(campaign.module))
    sink = InMemorySink()
    run_campaign(campaign, seed=SEED, tracer=Tracer(sink), trace_spans=True)
    return sink.records


class TestSpanIds:
    def test_pure_function_of_inputs(self):
        a = span_id("root", "trial", 3)
        b = span_id("root", "trial", 3)
        assert a == b
        assert len(a) == 16
        assert a != span_id("root", "trial", 4)
        assert a != span_id("other", "trial", 3)
        assert a != span_id("root", "attempt", 3)

    def test_campaign_root_depends_on_identity_and_seed(self):
        r = campaign_root("prog", "f", 7, 100)
        assert r == campaign_root("prog", "f", 7, 100)
        assert r != campaign_root("prog", "f", 8, 100)
        assert r != campaign_root("prog", "g", 7, 100)
        assert r != campaign_root("prog", "f", 7, 101)
        # Generator seeds contribute index 0, deterministically.
        assert campaign_root("prog", "f", None, 100) == campaign_root(
            "prog", "f", None, 100
        )

    def test_fleet_root(self):
        assert fleet_root(16, 0) == fleet_root(16, 0)
        assert fleet_root(16, 0) != fleet_root(16, 1)
        assert fleet_root(16, 0) != fleet_root(8, 0)


class TestTracedByteIdentity:
    def test_serial_stream_is_well_formed(self):
        records = _traced(_campaign())
        starts = [e for _, e in records if isinstance(e, SpanStart)]
        ends = [e for _, e in records if isinstance(e, SpanEnd)]
        assert len(starts) == len(ends) == N_TRIALS + 1
        root = starts[0]
        assert root.parent == ROOT
        assert root.name == "campaign"
        trials = [s for s in starts if s.name == "trial"]
        assert [s.index for s in trials] == list(range(N_TRIALS))
        # Every id is predictable from the root.
        for s in trials:
            assert s.span == span_id(root.span, "trial", s.index)
        # Campaign spans never carry wall-clock.
        assert all(e.elapsed_s == 0.0 for e in ends)

    def test_span_stream_does_not_perturb_results(self):
        campaign = _campaign()
        GOLDEN_CACHE.clear()
        bare = run_campaign(campaign, seed=SEED)
        GOLDEN_CACHE.clear()
        sink = InMemorySink()
        traced = run_campaign(
            campaign, seed=SEED, tracer=Tracer(sink), trace_spans=True
        )
        assert [t.outcome for t in traced.trials] == [
            t.outcome for t in bare.trials
        ]


class TestSpanScope:
    def test_nested_scopes_derive_ids(self):
        sink = InMemorySink()
        scope = SpanScope(Tracer(sink))
        with scope.span_ctx("campaign") as camp:
            with camp.span_ctx("trial", detail="t0") as trial:
                trial.end_fields["status"] = "sdc"
        starts = [e for e in sink.events if isinstance(e, SpanStart)]
        ends = [e for e in sink.events if isinstance(e, SpanEnd)]
        assert starts[1].parent == starts[0].span
        assert starts[1].span == span_id(starts[0].span, "trial", 0)
        assert ends[0].status == "sdc"

    def test_exception_closes_with_failed(self):
        sink = InMemorySink()
        scope = SpanScope(Tracer(sink))
        with pytest.raises(RuntimeError):
            with scope.span_ctx("campaign"):
                raise RuntimeError("boom")
        end = [e for e in sink.events if isinstance(e, SpanEnd)][0]
        assert end.status == "failed"
