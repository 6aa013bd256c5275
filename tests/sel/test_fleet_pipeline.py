"""Fleet pipeline: 16 boards, one latch-up, one power cycle.

The end-to-end claim of the fleet service: with a 5 mA latch-up on one
board of sixteen, exactly that board is power-cycled inside the 3-minute
damage budget, no clean board reboots, and the traced FleetDecision
stream replays to the same per-board outcome through the trace index's
fleet replay.
"""

import pytest

from repro.core.sel import (
    FleetMember, SelFleetService, SelTrialConfig,
    train_detector_on_clean_trace,
)
from repro.detect import FleetConfig, ResidualCusumDetector
from repro.faults.sel import LatchupEvent
from repro.hw.board import Board
from repro.hw.specs import RASPBERRY_PI_4
from repro.obs import FleetDecision, InMemorySink, JsonlSink, Tracer
from repro.obs.events import event_from_dict
from repro.obs.query import TraceIndex
from repro.obs.report import render
from repro.workloads.stress import cpu_memory_stress_schedule

N_BOARDS = 16
FAULTED = 7
ONSET_S = 40.0
DEADLINE_S = 180.0
#: h_sigma=40 clears the clean-trace CUSUM ceiling (~27 over 3 min)
#: while a 5 mA latch-up (~1 residual sigma/sample) still crosses in
#: well under a minute.
DETECTOR = dict(h_sigma=40.0)


def _build_fleet():
    members = []
    for b in range(N_BOARDS):
        members.append(
            FleetMember(
                board_id=f"board-{b:02d}",
                board=Board(spec=RASPBERRY_PI_4, seed=200 + b),
                schedule=cpu_memory_stress_schedule(RASPBERRY_PI_4.n_cores),
            )
        )
    members[FAULTED].board.inject_latchup(
        LatchupEvent(
            onset_s=ONSET_S,
            delta_current_a=0.005,
            damage_deadline_s=DEADLINE_S,
        )
    )
    return members


@pytest.fixture(scope="module")
def fleet_run(tmp_path_factory):
    """One traced 180 s fleet run shared by every assertion below."""
    detector = train_detector_on_clean_trace(
        ResidualCusumDetector(**DETECTOR),
        SelTrialConfig(train_duration_s=120.0),
        seed=11,
    )
    members = _build_fleet()
    trace_path = tmp_path_factory.mktemp("fleet") / "trace.jsonl"
    sink = InMemorySink()
    with JsonlSink(trace_path) as jsonl:
        service = SelFleetService(
            detector, members, FleetConfig(), tracer=Tracer(sink, jsonl)
        )
        service.run(duration_s=180.0, rate_hz=10.0)
    return service, members, sink, trace_path


class TestFleetPipeline:
    def test_only_faulted_board_power_cycles(self, fleet_run):
        service, members, _, _ = fleet_run
        cycled = {
            m.board_id: m.board.power_cycles
            for m in members
            if m.board.power_cycles
        }
        assert cycled == {f"board-{FAULTED:02d}": 1}

    def test_within_damage_budget(self, fleet_run):
        service, members, _, _ = fleet_run
        faulted = members[FAULTED]
        assert not faulted.board.destroyed
        reboot_t = faulted.controller.reboots[0]
        assert ONSET_S <= reboot_t <= ONSET_S + DEADLINE_S
        assert faulted.controller.false_reboots == 0

    def test_no_clean_board_alarms(self, fleet_run):
        service, _, _, _ = fleet_run
        assert set(service.alarm_times()) == {f"board-{FAULTED:02d}"}

    def test_trace_replays_to_same_outcome(self, fleet_run):
        """The JSONL FleetDecision stream alone reproduces who alarmed
        when — round-tripped through the trace reader."""
        service, _, sink, trace_path = fleet_run
        index = TraceIndex.from_file(trace_path)
        assert index.fleet.alarms == service.alarm_times()
        events = [event for _, event in index.pairs]
        # The in-memory and file streams agree event for event.
        assert [e.to_dict() for e in sink.events] == [
            e.to_dict() for e in events
        ]

    def test_events_round_trip(self, fleet_run):
        _, _, sink, _ = fleet_run
        for event in sink.events[:50]:
            clone = event_from_dict(event.to_dict())
            assert clone == event

    def test_decisions_cover_every_tick(self, fleet_run):
        _, _, sink, _ = fleet_run
        decisions = [e for e in sink.events if isinstance(e, FleetDecision)]
        assert len(decisions) == 1800
        assert all(d.n_boards == N_BOARDS for d in decisions)
        warm = [d for d in decisions if d.warming_up]
        assert len(warm) == 50  # 5 s warmup at 10 Hz

    def test_report_renders_fleet_section(self, fleet_run):
        _, _, sink, _ = fleet_run
        text = render(TraceIndex.from_events(sink.events))
        assert "-- fleet decisions" in text
        assert f"alarms board-{FAULTED:02d}" in text

    def test_alarms_stop_after_recovery(self, fleet_run):
        """The power cycle clears the latch-up: once the faulted board's
        CUSUM decays back down, the fleet goes quiet again."""
        _, members, sink, _ = fleet_run
        reboot_t = members[FAULTED].controller.reboots[0]
        decisions = [e for e in sink.events if isinstance(e, FleetDecision)]
        late = [d for d in decisions if d.t > reboot_t + 60.0]
        assert late
        assert not any(d.alarm_ids() for d in late)
