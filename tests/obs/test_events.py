"""Event bus tests: typing, registry, serialization, sinks, sequencing."""

import pytest

from repro.errors import ConfigError
from repro.obs.events import (
    EVENT_TYPES,
    CampaignEnd,
    CampaignStart,
    CheckpointTaken,
    DetectorDecision,
    Event,
    InMemorySink,
    Injection,
    JsonlSink,
    LadderAttemptEvent,
    MissionDay,
    MissionSel,
    RecoveryDone,
    Tracer,
    TrialEnd,
    TrialStart,
    WatchdogFire,
    event_from_dict,
    read_trace,
)
from repro.obs.recorder import FlightRecorder

SAMPLE_EVENTS = [
    CampaignStart(program="p", func="f", n_trials=3, target="register"),
    TrialStart(trial=0),
    Injection(trial=0, target="register", dynamic_index=7,
              location="%v3", bit=12),
    TrialEnd(trial=0, outcome="crash", cycles=901),
    CheckpointTaken(trial=0, instructions=200, cycles=340, taken=1),
    WatchdogFire(trial=0, budget=999),
    LadderAttemptEvent(trial=0, rung="retry", attempt=0, success=True,
                       cycles=100, backoff_s=0.0, latency_s=1e-7),
    RecoveryDone(trial=0, outcome="crash", recovered=True, rung="retry",
                 attempts=1, latency_s=1e-7, wasted_cycles=901,
                 persistence="transient"),
    DetectorDecision(t=1.5, score=0.2, threshold=0.5, anomalous=False,
                     hits=0, window_len=15, window_full=True, alarm=False),
    MissionDay(day=3.0, seu_events=120, compute_failures=2, downtime_s=4.0),
    MissionSel(day=3.5, delta_a=0.2, detected=True, destroyed=False),
    CampaignEnd(program="p", func="f",
                counts={"benign": 2, "crash": 1}, golden_cycles=800,
                golden_instructions=640),
]


class TestEventTypes:
    def test_registry_covers_every_subclass(self):
        for event in SAMPLE_EVENTS:
            assert EVENT_TYPES[event.kind] is type(event)

    def test_events_are_immutable(self):
        with pytest.raises(AttributeError):
            SAMPLE_EVENTS[1].trial = 5

    @pytest.mark.parametrize(
        "event", SAMPLE_EVENTS, ids=lambda e: e.kind
    )
    def test_dict_round_trip(self, event):
        assert event_from_dict(event.to_dict()) == event

    def test_round_trip_ignores_seq_key(self):
        record = {"seq": 42, **TrialStart(trial=1).to_dict()}
        assert event_from_dict(record) == TrialStart(trial=1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            event_from_dict({"kind": "no-such-event"})

    def test_duplicate_kind_rejected(self):
        with pytest.raises(TypeError):
            class Duplicate(Event):
                kind = "trial-start"


class TestTracer:
    def test_sequence_is_monotonic_across_sinks(self):
        a, b = InMemorySink(), InMemorySink()
        tracer = Tracer(a, b)
        for i in range(5):
            tracer.emit(TrialStart(trial=i))
        assert [seq for seq, _ in a.records] == list(range(5))
        assert a.records == b.records

    def test_emit_all_preserves_order(self):
        sink = InMemorySink()
        tracer = Tracer(sink)
        tracer.emit_all([TrialStart(trial=i) for i in range(3)])
        assert [e.trial for e in sink.events] == [0, 1, 2]

    def test_recorder_property_finds_flight_recorder(self):
        recorder = FlightRecorder()
        assert Tracer(InMemorySink(), recorder).recorder is recorder
        assert Tracer(InMemorySink()).recorder is None


class TestJsonlSink:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Tracer(JsonlSink(path)) as tracer:
            for event in SAMPLE_EVENTS:
                tracer.emit(event)
        pairs = read_trace(path)
        assert [seq for seq, _ in pairs] == list(range(len(SAMPLE_EVENTS)))
        assert [event for _, event in pairs] == SAMPLE_EVENTS

    def test_finished_campaign_is_on_disk_before_close(self, tmp_path):
        # A crash during the second campaign must not lose the first.
        from repro.faults.campaign import Campaign, run_campaign
        from repro.faults.model import FaultTarget
        from repro.workloads.irprograms import PROGRAMS, build_program

        path = tmp_path / "trace.jsonl"
        memory = InMemorySink()
        sink = JsonlSink(path)
        tracer = Tracer(sink, memory)
        run_campaign(Campaign(
            module=build_program("fact"), func_name="fact",
            args=PROGRAMS["fact"].default_args,
            target=FaultTarget.REGISTER, n_trials=5,
        ), seed=3, tracer=tracer)
        first = list(memory.records)
        assert isinstance(first[-1][1], CampaignEnd)
        tracer.emit(CampaignStart(
            program="p", func="f", n_trials=3, target="register",
        ))
        tracer.emit(TrialStart(trial=0))
        try:
            assert read_trace(path)[:len(first)] == first
        finally:
            sink.close()

    def test_unparseable_line_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "trial-start", "trial": 0}\nnot json\n')
        with pytest.raises(ConfigError):
            read_trace(path)
