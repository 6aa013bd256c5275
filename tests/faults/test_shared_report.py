"""The golden lookup and masking report a pruned campaign plans from.

A pruned campaign looks golden up once and plans from that lookup with
the module's masking report, which :func:`repro.ir.interp.module_record`
keeps on the module beside its compiled code: the first pruned campaign
over a module computes it, every later one reuses it.  The report obeys
the compiled code's rules (``test_shared_code.py``):

* a module changed in place is analysed again;
* a pickled or deep-copied module, and an identical clone, analyse
  themselves;
* the report must not keep its module alive.
"""

from __future__ import annotations

import copy
import gc
import pickle
import weakref

import pytest

import repro.analysis.masking as masking
from repro.core.dmr import ProtectionLevel, instrument_module
from repro.faults.campaign import (
    Campaign,
    prune_masked_trials,
    run_campaign,
    run_campaign_pruned,
)
from repro.ir.clone import clone_module
from repro.ir.values import Constant
from repro.obs.events import (
    CampaignStart,
    GoldenCacheLookup,
    InMemorySink,
    Tracer,
)
from repro.perf.cache import GOLDEN_CACHE
from repro.workloads.irprograms import PROGRAMS, build_program

from tests.identity import trials_digest


def _campaign(module, name: str, n_trials: int = 100) -> Campaign:
    return Campaign(
        module=module, func_name=name, args=PROGRAMS[name].default_args,
        n_trials=n_trials,
    )


def _protected_gcd():
    module, _plans = instrument_module(
        build_program("gcd"), ProtectionLevel.FULL_DMR
    )
    return module


def _start_counter_at_3(module) -> None:
    """Make fact's loop counter start at 3 instead of 1, in place.

    The loop then runs two passes fewer, so golden and every trial's
    dynamic indices change.
    """
    (phi,) = [
        instr for block in module.function("fact").blocks
        for instr in block.phis if instr.name == "i"
    ]
    position = next(
        i for i, op in enumerate(phi.operands)
        if isinstance(op, Constant) and op.value == 1
    )
    phi.operands[position] = Constant(phi.type, 3)


@pytest.fixture
def analysed(monkeypatch):
    """The modules ``analyze_masking`` analysed, in call order."""
    modules = []
    analyze = masking.analyze_masking

    def counting(module):
        modules.append(module)
        return analyze(module)

    monkeypatch.setattr(masking, "analyze_masking", counting)
    return modules


def test_one_analysis_serves_every_pruned_campaign_on_a_module(analysed):
    module = _protected_gcd()
    campaign = _campaign(module, "gcd")
    for seed in (1, 2, 3):
        assert trials_digest(run_campaign_pruned(campaign, seed=seed)) == (
            trials_digest(run_campaign(campaign, seed=seed))
        )
    assert analysed == [module]
    first = prune_masked_trials(campaign, seed=4)
    assert prune_masked_trials(campaign, seed=5).report is first.report
    assert first.report.module is module
    assert analysed == [module]


def test_module_changed_in_place_is_analysed_again(analysed):
    module = build_program("fact")
    campaign = _campaign(module, "fact", n_trials=200)
    stale = prune_masked_trials(campaign, seed=5).report
    _start_counter_at_3(module)

    pruned = run_campaign_pruned(campaign, seed=5)
    assert analysed == [module, module]
    assert prune_masked_trials(campaign, seed=5).report is not stale
    assert trials_digest(pruned) == trials_digest(
        run_campaign(campaign, seed=5)
    )
    fresh = _campaign(clone_module(module), "fact", n_trials=200)
    assert trials_digest(pruned) == trials_digest(
        run_campaign_pruned(fresh, seed=5)
    )


@pytest.mark.parametrize(
    "copy_of",
    [
        lambda module: pickle.loads(pickle.dumps(module)),
        copy.deepcopy,
        clone_module,
    ],
    ids=["pickled", "deep-copied", "identical-clone"],
)
def test_copies_and_clones_of_a_module_analyse_themselves(analysed, copy_of):
    module = _protected_gcd()
    campaign = _campaign(module, "gcd")
    expected = trials_digest(run_campaign_pruned(campaign, seed=7))
    copied = copy_of(module)
    copied_campaign = _campaign(copied, "gcd")
    assert trials_digest(run_campaign_pruned(copied_campaign, seed=7)) == (
        expected
    )
    assert analysed == [module, copied]
    assert prune_masked_trials(copied_campaign, seed=7).report.module is copied


def test_report_dies_with_its_module():
    module = _protected_gcd()
    campaign = _campaign(module, "gcd")
    run_campaign_pruned(campaign, seed=9)
    report = weakref.ref(prune_masked_trials(campaign, seed=9).report)
    assert report() is not None
    ref = weakref.ref(module)
    del module, campaign
    gc.collect()
    assert ref() is None
    assert report() is None


def test_cold_pruned_campaign_looks_golden_up_once():
    campaign = _campaign(_protected_gcd(), "gcd", n_trials=40)
    GOLDEN_CACHE.clear()
    sink = InMemorySink()
    run_campaign_pruned(campaign, seed=3, tracer=Tracer(sink))
    assert isinstance(sink.events[0], CampaignStart)
    assert [e for e in sink.events if isinstance(e, GoldenCacheLookup)] == [
        GoldenCacheLookup(hit=False, instructions=0)
    ]
    assert (GOLDEN_CACHE.stats.hits, GOLDEN_CACHE.stats.misses) == (0, 1)
