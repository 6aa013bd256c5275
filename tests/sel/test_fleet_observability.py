"""Fleet service observability: tick spans, mergeable latency, report."""

import pytest

from repro.core.sel import (
    FleetMember,
    SelFleetService,
    SelTrialConfig,
    train_detector_on_clean_trace,
)
from repro.detect import FleetConfig, ResidualCusumDetector
from repro.hw.board import Board
from repro.hw.specs import RASPBERRY_PI_4
from repro.obs import FleetDecision, FleetReplay, InMemorySink, Rollup, Tracer
from repro.obs.aggregate import LATENCY_BOUNDS
from repro.obs.query import TraceIndex
from repro.obs.report import render_fleet
from repro.obs.spans import ROOT, SpanEnd, SpanStart, fleet_root, span_id
from repro.workloads.stress import cpu_memory_stress_schedule

N_BOARDS = 4
DURATION_S = 20.0
RATE_HZ = 2.0


@pytest.fixture(scope="module")
def traced_fleet():
    detector = train_detector_on_clean_trace(
        ResidualCusumDetector(h_sigma=40.0),
        SelTrialConfig(train_duration_s=60.0),
        seed=11,
    )
    members = [
        FleetMember(
            board_id=f"board-{b:02d}",
            board=Board(spec=RASPBERRY_PI_4, seed=300 + b),
            schedule=cpu_memory_stress_schedule(RASPBERRY_PI_4.n_cores),
        )
        for b in range(N_BOARDS)
    ]
    sink = InMemorySink()
    metrics = Rollup()
    service = SelFleetService(
        detector, members, FleetConfig(),
        tracer=Tracer(sink), metrics=metrics, trace_spans=True,
    )
    service.run(duration_s=DURATION_S, rate_hz=RATE_HZ)
    return service, sink, metrics


class TestFleetSpans:
    def test_root_and_tick_spans_derive_deterministically(self, traced_fleet):
        service, sink, _ = traced_fleet
        starts = [e for e in sink.events if isinstance(e, SpanStart)]
        ends = [e for e in sink.events if isinstance(e, SpanEnd)]
        root = starts[0]
        assert root.name == "fleet"
        assert root.parent == ROOT
        assert root.span == fleet_root(N_BOARDS, 0)
        ticks = [s for s in starts if s.name == "tick"]
        n_ticks = int(DURATION_S * RATE_HZ)
        assert len(ticks) == n_ticks
        for tick in ticks:
            assert tick.span == span_id(root.span, "tick", tick.index)
        # Root closes with the tick count; every span closes.
        assert len(ends) == len(starts)
        assert ends[-1].span == root.span
        assert ends[-1].count == n_ticks

    def test_tick_spans_carry_scored_count_and_warmup_status(
        self, traced_fleet
    ):
        _, sink, _ = traced_fleet
        ends = [e for e in sink.events if isinstance(e, SpanEnd)]
        tick_ends = [e for e in ends if e.span != fleet_root(N_BOARDS, 0)]
        assert any(e.status == "warmup" for e in tick_ends)
        assert any(e.status == "ok" and e.count == N_BOARDS
                   for e in tick_ends)

    def test_spans_do_not_change_decisions(self, traced_fleet):
        _, sink, _ = traced_fleet
        decisions = [e for e in sink.events if isinstance(e, FleetDecision)]
        assert len(decisions) == int(DURATION_S * RATE_HZ)


class TestFleetLatencyMetrics:
    def test_latency_lands_in_fixed_bucket_histogram(self, traced_fleet):
        _, _, metrics = traced_fleet
        hist = metrics.histograms["fleet.score_latency_s"]
        assert hist.bounds == LATENCY_BOUNDS
        assert hist.count == int(DURATION_S * RATE_HZ)

    def test_health_snapshot_includes_latency_and_counters(
        self, traced_fleet
    ):
        service, _, _ = traced_fleet
        snap = service.health_snapshot()
        assert snap["counters"]["fleet.scored"] > 0
        assert snap["histograms"]["fleet.score_latency_s"]["count"] == int(
            DURATION_S * RATE_HZ
        )


class TestFleetReportColumns:
    def test_latency_line(self, traced_fleet):
        _, sink, metrics = traced_fleet
        fleet = TraceIndex.from_events(sink.events).fleet
        latency = metrics.histograms["fleet.score_latency_s"].summary()
        text = render_fleet(fleet, latency=latency)
        assert "decision latency: p50=" in text
        assert "p99=" in text

    def test_board_table_columns(self):
        decisions = [
            FleetDecision(
                t=float(t), n_boards=2, n_scored=2, n_anomalous=0,
                alarms="board-01" if t == 3 else "",
                quarantined="", released="", max_score=1.0,
                warming_up=False,
            )
            for t in range(5)
        ]
        text = render_fleet(FleetReplay(decisions))
        assert "alarm-rate" in text
        assert "board-01" in text
        # board-01 alarmed once over the fleet's five scored ticks,
        # counted from t=0 although the trace first names it at t=3.
        assert "20.00%" in text

    def test_report_without_latency_still_renders(self, traced_fleet):
        _, sink, _ = traced_fleet
        fleet = TraceIndex.from_events(sink.events).fleet
        text = render_fleet(fleet)
        assert "decision latency" not in text
        assert "ticks:" in text
