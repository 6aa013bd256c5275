"""E14 — static vulnerability ranking vs empirical per-site harm.

Validates the ACE-style static analysis the targeted-injection hook
(:func:`repro.faults.campaign.rank_sites`) relies on: score every
register of an unprotected program statically, then rebuild each
register's *empirical* harm — the fraction of injected flips that were
not benign — purely from the structured campaign traces
(:class:`repro.obs.query.TraceIndex` + :func:`repro.obs.report.site_harm`),
and rank-correlate the two orderings.

A positive Spearman correlation on every workload means the static
ranking is a usable prior for spending a trial budget where flips are
predicted to hurt most.
"""

import numpy as np
import pytest
from scipy import stats

from benchmarks._util import fmt_table, write_result
from repro.analysis.vulnerability import analyze_function
from repro.faults.campaign import Campaign, rank_sites, run_campaign
from repro.obs.events import InMemorySink, Tracer
from repro.obs.query import TraceIndex
from repro.obs.report import site_harm
from repro.workloads.irprograms import PROGRAMS, build_program

#: Programs spanning int control flow, memory traffic and FP dataflow.
RANKED_PROGRAMS = ("fact", "gcd", "checksum", "horner", "fmul_chain", "dot")
N_TRIALS = 600
SEED = 23
#: Minimum injections a site needs before its harm estimate is trusted.
MIN_SAMPLES = 5


def _empirical_harm(name: str) -> dict[str, float]:
    """Per-register harm fraction, rebuilt from the campaign trace."""
    module = build_program(name)
    campaign = Campaign(
        module=module,
        func_name=name,
        args=PROGRAMS[name].default_args,
        n_trials=N_TRIALS,
    )
    sink = InMemorySink()
    run_campaign(campaign, seed=SEED, tracer=Tracer(sink))
    (segment,) = TraceIndex.from_events(sink.events).segments
    ranked = site_harm(segment.site_outcomes)
    return {
        site: frac
        for frac, _bad, total, site, _per_site in ranked
        if total >= MIN_SAMPLES and site != "(missed)"
    }


@pytest.fixture(scope="module")
def correlations():
    data = {}
    for name in RANKED_PROGRAMS:
        module = build_program(name)
        report = analyze_function(module.function(name))
        harm = _empirical_harm(name)
        joined = [
            (report.score_of(site), frac) for site, frac in harm.items()
        ]
        scores = [s for s, _ in joined]
        harms = [h for _, h in joined]
        rho, pvalue = stats.spearmanr(scores, harms)
        data[name] = (len(joined), float(rho), float(pvalue))
    return data


def test_e14_static_rank_correlates_with_harm(correlations, benchmark):
    module = build_program("matmul")
    benchmark(analyze_function, module.function("matmul"))

    rows = [
        [name, str(n), f"{rho:+.2f}", f"{p:.1e}"]
        for name, (n, rho, p) in correlations.items()
    ]
    body = fmt_table(
        ["program", "sites joined", "spearman rho", "p-value"], rows
    )
    body += (
        f"\n\nper-register harm = non-benign fraction over {N_TRIALS} "
        f"uniform register flips (seed {SEED}),\nrebuilt from the obs "
        f"trace; sites with < {MIN_SAMPLES} injections dropped.\n"
        "positive rho on every program: the static ACE-style score is a "
        "usable\nprior for ordering injection sites by expected harm."
    )
    write_result("E14", "static vulnerability rank vs empirical harm", body)

    for name, (n, rho, _p) in correlations.items():
        assert n >= 5, f"{name}: too few sites joined ({n})"
        assert rho > 0, f"{name}: static ranking anti-correlates ({rho})"
    mean_rho = float(np.mean([rho for _n, rho, _p in correlations.values()]))
    assert mean_rho > 0.3, mean_rho


def test_e14_rank_sites_agrees_with_report():
    module = build_program("fact")
    campaign = Campaign(
        module=module, func_name="fact",
        args=PROGRAMS["fact"].default_args, n_trials=10,
    )
    report = analyze_function(module.function("fact"))
    assert rank_sites(campaign) == [s.name for s in report.ranked()]


def test_e14_targeted_sites_harm_more_than_uniform(correlations):
    """The top-half of the static ranking should harm more on average."""
    name = "gcd"
    module = build_program(name)
    report = analyze_function(module.function(name))
    harm = _empirical_harm(name)
    ranked = [s.name for s in report.ranked() if s.name in harm]
    half = max(1, len(ranked) // 2)
    top = float(np.mean([harm[s] for s in ranked[:half]]))
    bottom = float(np.mean([harm[s] for s in ranked[half:]]))
    assert top >= bottom
