"""Campaign executor: byte-identity with the inline run, and failures.

The acceptance property of :mod:`repro.faults.parallel` is not "roughly
the same counts" but **byte-identical trial sequences**: same resolved
fault specs, same faulted values, same cycle counts, same tallies, for
every worker count — including the ``workers=1`` in-process fallback —
and after a pool worker dies mid-campaign.
"""

import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

import repro
import repro.faults.campaign as engine
import repro.faults.parallel as par
from repro.errors import FaultInjectionError
from repro.faults.campaign import Campaign, run_campaign, run_golden
from repro.faults.model import FaultTarget
from repro.faults.parallel import MIN_PARALLEL_TRIALS, WireCampaign
from repro.obs.events import InMemorySink, Tracer
from repro.perf.cache import GOLDEN_CACHE
from repro.perf.pool import POOL_REGISTRY
from repro.recover.supervisor import SupervisorConfig, run_supervised_campaign
from repro.workloads.irprograms import PROGRAMS, build_program

from tests.identity import assert_identical, stream_digest


def _campaign(name, **kwargs):
    module = build_program(name)
    return Campaign(
        module=module,
        func_name=name,
        args=PROGRAMS[name].default_args,
        **kwargs,
    )


class TestParallelDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_register_target_identical(self, workers):
        campaign = _campaign("isort", n_trials=40)
        serial = run_campaign(campaign, seed=7)
        parallel = run_campaign(campaign, seed=7, workers=workers)
        assert_identical(serial, parallel)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_memory_target_identical(self, workers):
        campaign = _campaign(
            "checksum", n_trials=40, target=FaultTarget.MEMORY
        )
        serial = run_campaign(campaign, seed=13)
        parallel = run_campaign(campaign, seed=13, workers=workers)
        assert_identical(serial, parallel)

    def test_instrumented_module_identical(self):
        # The wire format round-trips instrumented (DMR) modules too.
        from repro.core.dmr import ProtectionLevel, instrument_module

        module, _ = instrument_module(
            build_program("fact"), ProtectionLevel.FULL_DMR
        )
        campaign = Campaign(
            module=module,
            func_name="fact",
            args=PROGRAMS["fact"].default_args,
            n_trials=30,
        )
        serial = run_campaign(campaign, seed=3)
        parallel = run_campaign(campaign, seed=3, workers=2)
        assert_identical(serial, parallel)

    def test_explicit_chunk_size_identical(self, monkeypatch):
        campaign = _campaign("collatz", n_trials=25)
        serial = run_campaign(campaign, seed=5)
        for size in (1, 7, 25, 100):
            def fixed(items, workers, size=size):
                return [items[i:i + size] for i in range(0, len(items), size)]

            monkeypatch.setattr(par, "_chunks", fixed)
            parallel = run_campaign(campaign, seed=5, workers=2)
            assert_identical(serial, parallel)

    def test_run_campaign_workers_kwarg_delegates(self):
        campaign = _campaign("fib", n_trials=30)
        serial = run_campaign(campaign, seed=9)
        threaded = run_campaign(campaign, seed=9, workers=4)
        assert_identical(serial, threaded)

    def test_small_campaign_uses_fallback(self):
        # Below MIN_PARALLEL_TRIALS the pool is skipped entirely, but the
        # result is still identical to serial.
        n = MIN_PARALLEL_TRIALS - 1
        campaign = _campaign("gcd", n_trials=n)
        serial = run_campaign(campaign, seed=2)
        parallel = run_campaign(campaign, seed=2, workers=4)
        assert_identical(serial, parallel)


class TestSupervisedParallel:
    def test_supervised_identical_to_serial(self):
        campaign = _campaign("collatz", n_trials=12)
        config = SupervisorConfig()
        serial = run_supervised_campaign(campaign, config, seed=21)
        parallel = run_supervised_campaign(
            campaign, config, seed=21, workers=2
        )
        assert_identical(serial, parallel)


class TestWireFormat:
    def test_wire_round_trip_preserves_golden(self):
        campaign = _campaign("horner", n_trials=10)
        golden = run_golden(campaign)
        wire = WireCampaign.from_campaign(campaign, golden)
        rebuilt = wire.to_campaign()
        regolden = run_golden(rebuilt, use_cache=False)
        assert regolden.value == golden.value
        assert regolden.instructions == golden.instructions

    def test_resolve_workers_validation(self):
        """A worker count below 1 is refused before anything is emitted."""
        campaign = _campaign("gcd", n_trials=10)
        for workers in (0, -2):
            sink = InMemorySink()
            with pytest.raises(FaultInjectionError, match="worker count"):
                run_campaign(
                    campaign, seed=1, workers=workers, tracer=Tracer(sink),
                    trace_spans=True,
                )
            assert sink.events == []


class TestChunkHeuristic:
    def test_chunks_key_off_available_cpus_not_requested_workers(
        self, monkeypatch
    ):
        monkeypatch.setattr(par, "available_cpus", lambda: 2)
        items = list(range(64))
        # 16 requested workers on a 2-CPU host: sizing must use the 2
        # effective CPUs (~4 chunks each), not 64 slivers of one.
        chunks = par._chunks(items, workers=16)
        assert len(chunks) == 8
        assert [x for chunk in chunks for x in chunk] == items

    def test_plenty_of_cpus_uses_requested_workers(self, monkeypatch):
        monkeypatch.setattr(par, "available_cpus", lambda: 64)
        chunks = par._chunks(list(range(64)), workers=4)
        assert len(chunks) == 16

    def test_available_cpus_positive(self):
        assert par.available_cpus() >= 1


class TestWarmPoolReuse:
    def test_repeat_campaign_reuses_pool(self):
        campaign = _campaign("gcd", n_trials=16)
        first = run_campaign(campaign, seed=31, workers=2)
        reused_before = POOL_REGISTRY.stats.reused
        second = run_campaign(campaign, seed=31, workers=2)
        assert_identical(first, second)
        reused_after = POOL_REGISTRY.stats.reused
        if reused_after == reused_before:
            # Pool creation failed on this host (no semaphores): the
            # in-process fallback must still have produced identical
            # results above; nothing more to assert.
            assert len(POOL_REGISTRY) == 0


def _traced(campaign, **kwargs):
    GOLDEN_CACHE.clear()  # golden-cache hits are part of the stream
    sink = InMemorySink()
    result = run_campaign(
        campaign, seed=1, tracer=Tracer(sink), trace_spans=True, **kwargs
    )
    return result, stream_digest(sink.records)


class TestWorkerFailures:
    """A lost worker recovers byte-identically; a raising one surfaces."""

    def test_killed_worker_reruns_dispatch_inline(self, monkeypatch, deadline):
        campaign = _campaign("dot", n_trials=400)
        expected, expected_stream = _traced(campaign)
        # The next pool forks with the patch in place; the parent's own
        # (inline) re-run is exempt.
        POOL_REGISTRY.clear()
        parent, real = os.getpid(), engine.run_trial

        def dies_in_worker(*args, **kwargs):
            if kwargs.get("trial_index") == 201 and os.getpid() != parent:
                os._exit(9)
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, "run_trial", dies_in_worker)
        created = POOL_REGISTRY.stats.created
        lost = POOL_REGISTRY.stats.workers_lost
        with deadline(60):
            result, stream = _traced(campaign, workers=2)
        assert_identical(result, expected)
        assert stream == expected_stream
        assert len(POOL_REGISTRY) == 0  # the broken pool was discarded
        pooled = POOL_REGISTRY.stats.created > created
        lost_now = POOL_REGISTRY.stats.workers_lost
        assert lost_now == lost + pooled

    @pytest.mark.parametrize("where", ["warm-start", "trial"])
    def test_worker_exception_surfaces(self, where, monkeypatch, deadline):
        POOL_REGISTRY.clear()
        if where == "warm-start":
            # A golden run the worker cannot reproduce.
            real_wire = WireCampaign.from_campaign
            monkeypatch.setattr(WireCampaign, "from_campaign", classmethod(
                lambda cls, c, g: replace(
                    real_wire(c, g), golden_instructions=g.instructions + 1
                )
            ))
        else:
            parent, real = os.getpid(), engine.run_trial

            def raises_in_worker(*args, **kwargs):
                if os.getpid() != parent:
                    raise FaultInjectionError("trial failed in a worker")
                return real(*args, **kwargs)

            monkeypatch.setattr(engine, "run_trial", raises_in_worker)
        created = POOL_REGISTRY.stats.created
        try:
            with deadline(60):
                run_campaign(_campaign("gcd", n_trials=40), seed=3, workers=2)
            raised = False
        except FaultInjectionError:
            raised = True
        # Hosts that cannot fork a pool run inline, where nothing fails.
        pooled = POOL_REGISTRY.stats.created > created
        assert raised == pooled
        assert len(POOL_REGISTRY) == 0

    def test_pooled_campaigns_leave_stderr_empty(self):
        code = textwrap.dedent("""
            from repro.faults.campaign import Campaign, run_campaign
            from repro.workloads.irprograms import PROGRAMS, build_program

            for name in ("gcd", "fact", "dot", "gcd"):
                campaign = Campaign(
                    module=build_program(name), func_name=name,
                    args=PROGRAMS[name].default_args, n_trials=40,
                )
                run_campaign(campaign, seed=5, workers=2)
        """)
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
