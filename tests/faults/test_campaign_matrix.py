"""One identity matrix for every campaign flavour and execution mode.

Every flavour (plain, timeline, pruned, supervised) runs inline, on the
warm pool (``workers=2``) and with the pool unavailable, each untraced,
traced, and traced with spans (plus per-block transitions where the
flavour supports them).  Every cell must reproduce the SHA-256 digests of
the trial records and of the JSONL event stream pinned below; they were
recorded before the campaign engine became one plan → execute → emit
pipeline, so the refactor is checked against the engine it replaced.

Floats are compared by their bits (:mod:`tests.identity`), so trials that
return NaN — orbit seed 1 has one — count as identical when their bits are.
"""

from __future__ import annotations

import pytest

from repro.core.dmr import ProtectionLevel, instrument_module
from repro.faults.campaign import (
    Campaign,
    run_campaign,
    run_campaign_pruned,
    run_timeline_campaign,
)
from repro.obs.events import InMemorySink, Tracer
from repro.perf.cache import GOLDEN_CACHE
from repro.perf.pool import POOL_REGISTRY
from repro.radiation.schedule import EnvironmentTimeline, SpeModel
from repro.recover.supervisor import SupervisorConfig, run_supervised_campaign
from repro.workloads.irprograms import PROGRAMS, build_program

from tests.identity import assert_identical, stream_digest, trials_digest

MODES = ("inline", "pool", "no-pool")
TRACES = ("untraced", "traced", "spans+blocks")


def _campaign(name, n_trials, level=ProtectionLevel.NONE):
    module = build_program(name)
    if level is not ProtectionLevel.NONE:
        module, _plans = instrument_module(module, level)
    return Campaign(
        module=module, func_name=name, args=PROGRAMS[name].default_args,
        n_trials=n_trials,
    )


def _timeline():
    return EnvironmentTimeline(
        spe=SpeModel(
            onset_rate_per_day=0.0, forced_onsets=(600.0,),
            peak_storm_scale=50.0, decay_tau_s=1800.0,
        ),
        seed=5,
        name="matrix-storm",
    )


def _plain(workers, tracer, blocks, spans):
    return run_campaign(
        _campaign("isort", 32), seed=7, workers=workers, tracer=tracer,
        trace_blocks=blocks, trace_spans=spans,
    )


def _orbit(workers, tracer, blocks, spans):
    return run_campaign(
        _campaign("orbit", 100), seed=1, workers=workers, tracer=tracer,
        trace_blocks=blocks, trace_spans=spans,
    )


def _timeline_run(workers, tracer, blocks, spans):
    return run_timeline_campaign(
        _campaign("dot", 1), _timeline(), 0.0, 1_800.0, 0.01, seed=3,
        workers=workers, tracer=tracer, trace_blocks=blocks,
        trace_spans=spans,
    ).result


def _pruned(workers, tracer, blocks, spans):
    return run_campaign_pruned(
        _campaign("gcd", 80, ProtectionLevel.FULL_DMR), seed=11,
        workers=workers, tracer=tracer, trace_blocks=blocks,
        trace_spans=spans,
    )


def _supervised(workers, tracer, blocks, spans):
    # Supervised campaigns trace spans but not per-block transitions.
    return run_supervised_campaign(
        _campaign("fact", 24), SupervisorConfig(storage_flip_prob=0.05),
        seed=21, workers=workers, tracer=tracer, trace_spans=spans,
    )


FLAVOURS = {
    "plain": _plain,
    "timeline": _timeline_run,
    "pruned": _pruned,
    "supervised": _supervised,
}

#: flavour -> (trial digest, traced stream digest, spans+blocks digest),
#: pinned on the engine before the pipeline refactor.
DIGESTS = {
    "plain": (
        "a27eb00bb27f5c0cf6b93be65b74c1a3e86f2bf8d997d84901d071bf8c0ab32f",
        "c58aa5791f650940496cbb40b77cadb38ab82101c046b8f51702c4d2dde14c5d",
        "ef37487b7d5eaf1fb112433f2c01b9c66e62eecfdae9a67dade3a7ce36599421",
    ),
    "pruned": (
        "7e2b2ae5d4e82600dbd1a4782166dc3068ac700b4f239376791464ee9cddd2cb",
        "6c3193af02404f0f9e4e27192440ea0ace61b2df87ddcf0beb14e1c9fb089756",
        "faada461a91e7ab236a08d0847ee7f67f1e786f5eb71f3099964c10ae095ed90",
    ),
    "supervised": (
        "50512591c3a5e80cde7d187152b28cfd255cef44c526435ead07b2db2bed34e7",
        "9235329155ee79e5adf16274c547b5ab7954aa56a3e4551c8756404dc3a7faeb",
        "afab94a6aedf1dea0c32c9d3841000643c67a2ae62e606b3f55892cae2b574b0",
    ),
    "timeline": (
        "96dcc71c6474aa4745bcd451ed9c16965f6cd2e50e6dac4eb148e54b286eecc9",
        "a5113f67275a83a5fb1c0729a150adc6b67636d2325239ffc500993f41c54176",
        "6cea4588030af44e626e0c7681fcf8b634624545019c9418eae2b6ca0bf35bd7",
    ),
}

#: orbit seed 1 (trial 50 returns NaN): (trial digest, traced digest).
ORBIT_DIGESTS = (
    "7e70d28587f193e141f321e14e86fae924c70078a871030424efcb9ec3fae0ca",
    "6ea5418dcd0e64f2a77a91eca0dbf49ad9d82865760a2903a3c0c579ab0a5860",
)


def run_cell(runner, mode, trace, monkeypatch):
    """Run one cell; returns ``(result, stream digest or None)``."""
    if mode == "no-pool":
        monkeypatch.setattr(POOL_REGISTRY, "get", lambda *a, **k: None)
    workers = None if mode == "inline" else 2
    GOLDEN_CACHE.clear()  # golden-cache hits are part of the stream
    sink = InMemorySink()
    tracer = None if trace == "untraced" else Tracer(sink)
    full = trace == "spans+blocks"
    result = runner(workers, tracer, full, full)
    return result, None if tracer is None else stream_digest(sink.records)


@pytest.mark.parametrize("trace", TRACES)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("flavour", sorted(FLAVOURS))
def test_cell_reproduces_pinned_digests(flavour, mode, trace, monkeypatch):
    dispatched = POOL_REGISTRY.stats.chunks_dispatched
    result, stream = run_cell(FLAVOURS[flavour], mode, trace, monkeypatch)
    trials, traced, full = DIGESTS[flavour]
    assert trials_digest(result) == trials
    assert stream == {"untraced": None, "traced": traced,
                      "spans+blocks": full}[trace]
    now = POOL_REGISTRY.stats.chunks_dispatched
    if mode != "pool":
        assert now == dispatched
    elif len(POOL_REGISTRY):  # hosts without POSIX semaphores run inline
        assert now > dispatched


@pytest.mark.parametrize("trace", ("untraced", "traced"))
@pytest.mark.parametrize("mode", MODES)
def test_nan_trial_is_identical_bitwise(mode, trace, monkeypatch):
    result, stream = run_cell(_orbit, mode, trace, monkeypatch)
    assert repr(result.trials[50].value) == "nan"
    trials, traced = ORBIT_DIGESTS
    assert trials_digest(result) == trials
    assert stream == (None if trace == "untraced" else traced)


def test_nan_trials_compare_equal_only_bitwise():
    a = run_campaign(_campaign("orbit", 100), seed=1)
    b = run_campaign(_campaign("orbit", 100), seed=1)
    assert a.trials != b.trials  # float NaN != NaN under dataclass ==
    assert_identical(a, b)
