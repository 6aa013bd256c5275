"""End-to-end tracing invariants.

The observability contract: tracing only observes.  Traced campaign
results are byte-identical to untraced ones; the merged parallel event
stream is identical to the serial one at every worker count; and the
report CLI's aggregation reproduces the engine's own tally exactly.
"""

import json

import pytest

from repro.faults.campaign import Campaign, run_campaign
from repro.faults.model import FaultTarget
from repro.obs.aggregate import Rollup
from repro.obs.events import InMemorySink, JsonlSink, Tracer, read_trace
from repro.obs.query import TraceIndex
from repro.obs.recorder import FlightRecorder
from repro.obs.report import main as report_main
from repro.obs.report import outcome_counts, render
from repro.recover import SupervisorConfig, run_supervised_campaign
from repro.workloads.irprograms import PROGRAMS, build_program

N_TRIALS = 40
SEED = 7


def _campaign(name="isort", n_trials=N_TRIALS, **kwargs):
    return Campaign(
        module=build_program(name),
        func_name=name,
        args=PROGRAMS[name].default_args,
        n_trials=n_trials,
        **kwargs,
    )


def _traced(run, *args, **kwargs):
    sink = InMemorySink()
    result = run(*args, tracer=Tracer(sink), **kwargs)
    return result, sink


class TestTracedEqualsUntraced:
    def test_serial_campaign_byte_identical(self):
        plain = run_campaign(_campaign(), seed=SEED)
        traced, sink = _traced(run_campaign, _campaign(), seed=SEED)
        assert traced.counts == plain.counts
        assert traced.trials == plain.trials
        assert sink.events  # the stream actually materialized

    def test_memory_target_byte_identical(self):
        campaign = _campaign(
            "checksum", target=FaultTarget.MEMORY, n_trials=25
        )
        plain = run_campaign(campaign, seed=3)
        traced, _ = _traced(
            run_campaign,
            _campaign("checksum", target=FaultTarget.MEMORY, n_trials=25),
            seed=3,
        )
        assert traced.trials == plain.trials

    def test_block_tracing_byte_identical(self):
        plain = run_campaign(_campaign("fib", n_trials=15), seed=2)
        sink = InMemorySink()
        traced = run_campaign(
            _campaign("fib", n_trials=15), seed=2,
            tracer=Tracer(sink), trace_blocks=True,
        )
        assert traced.trials == plain.trials
        assert any(e.kind == "block" for e in sink.events)

    def test_supervised_campaign_byte_identical(self):
        config = SupervisorConfig(
            checkpoint_interval=100, storage_flip_prob=0.02
        )
        plain = run_supervised_campaign(_campaign(), config, seed=13)
        traced, sink = _traced(
            run_supervised_campaign, _campaign(), config, seed=13
        )
        assert traced.counts == plain.counts
        assert traced.trials == plain.trials
        assert [r.attempts for r in traced.records if r] == \
            [r.attempts for r in plain.records if r]


class TestParallelMergeOrderStable:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_stream_identical_at_every_worker_count(self, workers):
        _, serial_sink = _traced(run_campaign, _campaign(), seed=SEED)
        parallel_sink = InMemorySink()
        parallel = run_campaign(
            _campaign(), seed=SEED, workers=workers,
            tracer=Tracer(parallel_sink),
        )
        serial = run_campaign(_campaign(), seed=SEED)
        assert parallel.trials == serial.trials
        assert parallel_sink.records == serial_sink.records

    def test_supervised_stream_identical(self):
        config = SupervisorConfig(checkpoint_interval=100)
        _, serial_sink = _traced(
            run_supervised_campaign, _campaign(), config, seed=13
        )
        parallel_sink = InMemorySink()
        parallel = run_supervised_campaign(
            _campaign(), config, seed=13, workers=2,
            tracer=Tracer(parallel_sink),
        )
        serial = run_supervised_campaign(_campaign(), config, seed=13)
        assert parallel.trials == serial.trials
        assert parallel_sink.records == serial_sink.records


class TestRecoveryLatencyOnTrials:
    def test_failed_trials_carry_latency(self):
        config = SupervisorConfig(checkpoint_interval=100)
        result = run_supervised_campaign(_campaign(), config, seed=13)
        for trial, record in zip(result.trials, result.records):
            if record is None:
                assert trial.recovery_latency_s == 0.0
                assert trial.attempt_latencies_s == ()
            else:
                assert trial.recovery_latency_s == pytest.approx(
                    record.recovery_latency_s
                )
                assert trial.attempt_latencies_s == tuple(
                    a.latency_s for a in record.attempts
                )
                assert trial.backoff_charged_s == pytest.approx(
                    sum(a.backoff_s for a in record.attempts)
                )
                assert trial.recovery_latency_s >= sum(
                    trial.attempt_latencies_s
                ) - 1e-12


class TestReportAggregation:
    def test_outcome_counts_reproduces_engine_tally(self):
        result, sink = _traced(run_campaign, _campaign(), seed=SEED)
        assert outcome_counts(sink.events) == result.counts.as_dict()

    def test_metrics_sink_matches_engine_tally(self):
        metrics = Rollup()  # the one metrics sink
        result = run_campaign(
            _campaign(), seed=SEED, tracer=Tracer(metrics)
        )
        counters = metrics.snapshot()["counters"]
        for outcome, count in result.counts.as_dict().items():
            assert counters.get(f"trials.{outcome}", 0) == count

    def test_segment_agrees_with_declared_counts(self):
        result, sink = _traced(run_campaign, _campaign(), seed=SEED)
        index = TraceIndex.from_events(sink.events)
        (campaign,) = index.segments
        assert campaign.end.counts == result.counts.as_dict()
        counters = campaign.rollup.counters
        for outcome, count in result.counts.as_dict().items():
            assert counters.get(f"trials.{outcome}", 0) == count
        assert "agrees" in render(index)

    def test_report_cli_text_and_json(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        with Tracer(JsonlSink(path)) as tracer:
            result = run_campaign(_campaign(), seed=SEED, tracer=tracer)

        assert report_main([str(path)]) == 0
        text = capsys.readouterr().out
        assert "repro.obs trace report" in text
        assert "agrees" in text and "DISAGREES" not in text

        assert report_main([str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["campaigns"][0]["outcomes"] == \
            result.counts.as_dict()

    def test_jsonl_trace_round_trips_through_report(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Tracer(JsonlSink(path)) as tracer:
            result = run_campaign(_campaign(), seed=SEED, tracer=tracer)
        events = [event for _, event in read_trace(path)]
        assert outcome_counts(events) == result.counts.as_dict()


class TestFlightRecorderIntegration:
    def test_crash_and_hang_trials_produce_dumps(self):
        # One recorder across two campaigns: isort crashes (bad heap
        # addresses), fib hangs (corrupted loop counters).
        recorder = FlightRecorder(capacity=64, max_dumps=64)
        tracer = Tracer(recorder)
        crash_run = run_campaign(
            _campaign("isort", n_trials=120), seed=SEED, tracer=tracer
        )
        hang_run = run_campaign(
            _campaign("fib", n_trials=120), seed=SEED, tracer=tracer
        )
        crashes = crash_run.counts.as_dict()["crash"]
        hangs = hang_run.counts.as_dict()["hang"]
        assert crashes > 0 and hangs > 0  # seeds chosen to exercise both
        assert recorder.dumps_for("crash")
        assert recorder.dumps_for("hang")
        for dump in recorder.dumps:
            assert dump.events[-1][1].outcome == dump.reason
