"""Golden runs kept in their module's record: the lookup key, the fuel
rule, defensive copies, and the process-wide hit/miss counts."""

import math
from dataclasses import replace

import pytest

from repro.core.dmr import ProtectionLevel, instrument_module
from repro.errors import FaultInjectionError
from repro.faults.campaign import Campaign, run_golden
from repro.ir.costmodel import CORTEX_A53
from repro.ir.interp import Interpreter, module_record
from repro.ir.parser import parse_module
from repro.perf.cache import GOLDEN_CACHE, module_fingerprint
from repro.workloads.irprograms import PROGRAMS, build_program

RECIPROCAL = """
func @f(%a: f64) -> f64 {
^entry:
  %r = fdiv f64 1.0, %a
  ret f64 %r
}
"""


def _campaign(name, module=None, **kwargs):
    module = module if module is not None else build_program(name)
    return Campaign(
        module=module,
        func_name=name,
        args=PROGRAMS[name].default_args,
        **kwargs,
    )


def _lookup(campaign, **kwargs) -> tuple[int, int]:
    """``(hits, misses)`` of one :func:`run_golden` call."""
    GOLDEN_CACHE.clear()
    run_golden(campaign, **kwargs)
    return GOLDEN_CACHE.stats.hits, GOLDEN_CACHE.stats.misses


class TestFingerprint:
    def test_identical_modules_share_fingerprint(self):
        assert module_fingerprint(build_program("fact")) == module_fingerprint(
            build_program("fact")
        )

    def test_different_programs_differ(self):
        assert module_fingerprint(build_program("fact")) != module_fingerprint(
            build_program("fib")
        )

    def test_instrumented_clone_changes_fingerprint(self):
        # Instrumenting a module (a DMR clone) changes its printed IR,
        # hence its fingerprint, the one check of a module's record.
        original = build_program("fact")
        protected, _ = instrument_module(
            original, ProtectionLevel.FULL_DMR
        )
        assert module_fingerprint(original) != module_fingerprint(protected)


class TestGoldenRunCache:
    def test_hit_after_put(self):
        campaign = _campaign("fact")
        assert _lookup(campaign) == (0, 1)
        golden = run_golden(campaign, use_cache=False)
        GOLDEN_CACHE.clear()
        hit = run_golden(campaign)
        assert (hit.value, hit.cycles, hit.instructions) == (
            golden.value, golden.cycles, golden.instructions
        )
        assert GOLDEN_CACHE.stats.hits == 1 and GOLDEN_CACHE.stats.misses == 0

    def test_instrumented_clone_misses_original_entry(self):
        # A DMR-instrumented clone must never be served the
        # uninstrumented original's golden run (its instruction count
        # and duplicated values differ).
        campaign = _campaign("fact")
        run_golden(campaign)
        protected, _ = instrument_module(
            campaign.module, ProtectionLevel.FULL_DMR
        )
        assert _lookup(replace(campaign, module=protected)) == (0, 1)

    def test_key_covers_args_and_cost_model(self):
        campaign = _campaign("fact")
        run_golden(campaign)
        other_args = replace(campaign, args=(campaign.args[0] + 1,))
        tweaked = replace(campaign, cost_model=replace(
            CORTEX_A53, int_alu=CORTEX_A53.int_alu + 1
        ))
        assert _lookup(other_args) == (0, 1)
        assert _lookup(tweaked) == (0, 1)
        # Each is kept beside the first.
        for each in (campaign, other_args, tweaked):
            assert _lookup(each) == (1, 0)
        assert len(module_record(campaign.module).golden) == 3

    def test_signed_zero_args_are_other_args(self):
        # 0.0 == -0.0, yet 1.0 / -0.0 is -inf: never serve one's run
        # to the other.
        module = parse_module(RECIPROCAL)
        for args, value in (((0.0,), math.inf), ((-0.0,), -math.inf)):
            campaign = Campaign(module=module, func_name="f", args=args)
            assert run_golden(campaign).value == value

    def test_fuel_below_recorded_instructions_misses(self):
        campaign = _campaign("fib")
        golden = run_golden(campaign)
        assert _lookup(replace(campaign, fuel=golden.instructions)) == (1, 0)
        # Not served: golden runs again and cannot finish.
        GOLDEN_CACHE.clear()
        with pytest.raises(FaultInjectionError, match="exhausted"):
            run_golden(replace(campaign, fuel=golden.instructions - 1))
        assert GOLDEN_CACHE.stats.misses == 1

    def test_returned_runs_are_defensive_copies(self):
        campaign = _campaign("fact")
        run_golden(campaign).block_trace.append("tampered")
        run_golden(campaign).block_trace.append("tampered")
        assert "tampered" not in run_golden(campaign).block_trace

    def test_use_cache_false_bypasses_the_record(self):
        campaign = _campaign("fact")
        assert _lookup(campaign, use_cache=False) == (0, 0)
        assert module_record(campaign.module).golden == []
        assert _lookup(campaign) == (0, 1)

    def test_clear_resets_the_counts(self):
        campaign = _campaign("fact")
        run_golden(campaign)
        run_golden(campaign)
        assert GOLDEN_CACHE.stats.lookups >= 2
        GOLDEN_CACHE.clear()
        assert GOLDEN_CACHE.stats.lookups == 0
        # The run stays with its module.
        assert _lookup(campaign) == (1, 0)


class TestRunGoldenIntegration:
    def test_run_golden_populates_global_cache(self):
        GOLDEN_CACHE.clear()
        campaign = _campaign("collatz")
        first = run_golden(campaign)
        again = run_golden(campaign)
        assert again.value == first.value
        assert (GOLDEN_CACHE.stats.hits, GOLDEN_CACHE.stats.misses) == (1, 1)
        # The run itself is kept in the module's record.
        ((key, stored),) = module_record(campaign.module).golden
        assert key == ("collatz", repr(campaign.args), campaign.cost_model)
        assert stored == first

    def test_cached_run_matches_fresh_interpreter(self):
        campaign = _campaign("horner")
        run_golden(campaign)
        cached = run_golden(campaign)
        fresh = Interpreter(
            campaign.module, cost_model=campaign.cost_model,
            fuel=campaign.fuel,
        ).run(campaign.func_name, list(campaign.args))
        assert cached.value == fresh.value
        assert cached.instructions == fresh.instructions
        assert cached.cycles == fresh.cycles
