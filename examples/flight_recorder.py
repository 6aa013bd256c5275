#!/usr/bin/env python3
"""The flight recorder in action: trace a campaign, read the black box.

A flight computer's last moments live in a battery-backed ring buffer so
the post-mortem can explain a reboot nobody watched.  This demo attaches
the library's observability stack to two fault-injection campaigns:

- a :class:`~repro.obs.recorder.FlightRecorder` keeps the most recent
  events and snapshots a post-mortem dump whenever a trial ends in CRASH
  or HANG (and survives the escalation ladder's power cycles);
- a :class:`~repro.obs.aggregate.Rollup` folds the same event stream
  into counters and exact fixed-bucket latency histograms;
- a :class:`~repro.obs.events.JsonlSink` writes the trace to disk for
  ``python -m repro.obs.report``.

Run:  python examples/flight_recorder.py
"""

import tempfile
from pathlib import Path

from repro.faults.campaign import Campaign, run_campaign
from repro.obs.aggregate import Rollup
from repro.obs.events import JsonlSink, Tracer
from repro.obs.query import TraceIndex
from repro.obs.recorder import FlightRecorder
from repro.obs.report import outcome_counts, render
from repro.recover import SupervisorConfig, run_supervised_campaign
from repro.workloads.irprograms import PROGRAMS, build_program


def _campaign(name: str, n_trials: int = 150) -> Campaign:
    return Campaign(
        module=build_program(name),
        func_name=name,
        args=PROGRAMS[name].default_args,
        n_trials=n_trials,
    )


def main() -> None:
    trace_path = Path(tempfile.mkdtemp(prefix="repro-obs-")) / "trace.jsonl"
    recorder = FlightRecorder(capacity=48, max_dumps=64)
    metrics = Rollup()

    print("=== traced campaigns: isort (crashes) + fib (hangs) ===\n")
    with Tracer(JsonlSink(trace_path), recorder, metrics) as tracer:
        crash_run = run_campaign(_campaign("isort"), seed=7, tracer=tracer)
        hang_run = run_campaign(_campaign("fib"), seed=7, tracer=tracer)
        supervised = run_supervised_campaign(
            _campaign("isort", n_trials=80),
            SupervisorConfig(checkpoint_interval=100),
            seed=13,
            tracer=tracer,
        )

    print(f"isort: {crash_run.counts.as_dict()}")
    print(f"fib:   {hang_run.counts.as_dict()}")
    print(f"supervised isort: {supervised.counts.as_dict()} "
          f"(recovery rate {supervised.recovery_rate:.1%})\n")

    print("=== the black box ===\n")
    print(f"dumps taken: {len(recorder.dumps)} "
          f"({len(recorder.dumps_for('crash'))} crash, "
          f"{len(recorder.dumps_for('hang'))} hang); "
          f"{recorder.dropped} events aged out of the ring, "
          f"{recorder.power_cycles} power cycle(s) survived\n")
    print(recorder.dumps[0].render())

    print("\n=== metrics folded from the same stream ===\n")
    snapshot = metrics.snapshot()
    for name, value in snapshot["counters"].items():
        print(f"  {name:<28} {value}")
    latency = snapshot["histograms"].get("recovery.latency_s")
    if latency:
        print(f"  recovery latency_s: p50={latency['p50']:.3e} "
              f"p90={latency['p90']:.3e} max={latency['max']:.3e}")

    print("\n=== the evidence is self-consistent ===\n")
    index = TraceIndex.from_file(trace_path)
    rebuilt = outcome_counts(index.events)
    engine = {
        outcome: crash_run.counts.as_dict()[outcome]
        + hang_run.counts.as_dict()[outcome]
        + supervised.counts.as_dict()[outcome]
        for outcome in rebuilt
    }
    print(f"engine tally:     {engine}")
    print(f"rebuilt from log: {rebuilt}")
    assert rebuilt == engine, "trace disagrees with the engine!"

    print(f"\n=== report CLI (python -m repro.obs.report {trace_path}) ===\n")
    print(render(index, source=str(trace_path)))


if __name__ == "__main__":
    main()
