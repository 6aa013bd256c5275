"""Traces shared by the CLI tests: one supervised, one span-traced."""

import pytest

from repro.faults.campaign import Campaign, run_campaign
from repro.obs.events import FleetDecision, JsonlSink, Tracer
from repro.perf.cache import GOLDEN_CACHE
from repro.recover import run_supervised_campaign
from repro.workloads.irprograms import PROGRAMS, build_program


def _isort(n_trials: int) -> Campaign:
    return Campaign(
        module=build_program("isort"),
        func_name="isort",
        args=PROGRAMS["isort"].default_args,
        n_trials=n_trials,
    )


@pytest.fixture(scope="session")
def supervised_trace(tmp_path_factory):
    """40 supervised ``isort`` trials (seed 3), then four fleet ticks."""
    path = tmp_path_factory.mktemp("trace") / "supervised.jsonl"
    GOLDEN_CACHE.clear()  # golden-cache hits are part of the stream
    with Tracer(JsonlSink(path)) as tracer:
        run_supervised_campaign(_isort(40), seed=3, tracer=tracer)
        # A handful of fleet decisions so the fleet section renders too.
        for t in range(4):
            tracer.emit(FleetDecision(
                t=float(t), n_boards=2, n_scored=2, n_anomalous=0,
                alarms="board-a" if t == 2 else "",
                quarantined="", released="", max_score=0.5,
                warming_up=False,
            ))
    return path


@pytest.fixture(scope="session")
def sample_trace(tmp_path_factory):
    """The CI sample trace: 60 span-traced ``isort`` trials, seed 7."""
    path = tmp_path_factory.mktemp("trace") / "sample_trace.jsonl"
    GOLDEN_CACHE.clear()
    with Tracer(JsonlSink(path)) as tracer:
        run_campaign(
            _isort(60), seed=7, workers=1, tracer=tracer, trace_spans=True,
        )
    return path
