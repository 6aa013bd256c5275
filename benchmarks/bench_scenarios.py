"""E16 — orbital scenarios: environment x workload x policy matrix.

Three claims behind environment-driven scheduling and phase-adaptive
degradation:

* **dominance** — over every cell of the scenario matrix (quiet LEO, a
  forced solar particle event, a two-storm solar-max day; CubeSat and
  station workload mixes), the phase-adaptive degradation policy
  delivers more **useful compute per joule** than every static
  :class:`~repro.core.dmr.levels.ProtectionLevel`.  The comparison is
  exactly paired — every policy sees the same timeline realization — so
  any margin is policy, not sampling luck;
* **survival** — the critical workload lives through a full SPE under
  the adaptive policy (zero expected silent corruptions during the
  storm, downtime under 5% of it), while the weak static levels do not;
* **determinism** — tracing a timeline-driven campaign changes nothing
  for the same seed: same thinned arrival times, same per-trial faults,
  same tallies, and the trace holds one trial end per arrival and a
  campaign end whose counts are the result's.

Writes ``BENCH_scenarios.json`` at the repo root (bounded history via
:func:`repro.perf.report.write_perf_report`) and ``results/E16.txt``.

Budget knobs: ``REPRO_SCENARIO_HOURS`` (scenario length, default 8),
``REPRO_SCENARIO_CHUNK_S`` (fluid-loop resolution, default 120),
``REPRO_SCENARIO_CAMPAIGN_S`` (injection window for the determinism
gate, default 1800).
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from benchmarks._util import fmt_table, write_result
from repro.faults import run_timeline_campaign
from repro.faults.campaign import Campaign
from repro.obs.events import CampaignEnd, InMemorySink, Tracer, TrialEnd
from repro.perf.report import write_perf_report
from repro.radiation import EnvironmentTimeline, LeoOrbit, SpeModel
from repro.recover import WorkloadCriticality
from repro.sim import DEFAULT_WORKLOADS, ScenarioWorkload, sweep_policies
from repro.units import SECONDS_PER_HOUR
from repro.workloads.irprograms import PROGRAMS, build_program

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT_PATH = REPO_ROOT / "BENCH_scenarios.json"

HOURS = float(os.environ.get("REPRO_SCENARIO_HOURS", "8"))
DURATION_S = HOURS * SECONDS_PER_HOUR
#: Time-compression factor: every timescale in the scenario (chunk,
#: orbit, SPE onsets and decay) shrinks together under a smaller
#: ``REPRO_SCENARIO_HOURS``, so compute-per-joule — a ratio of
#: time-proportional quantities — is exactly budget-invariant and the
#: gates hold at any budget.
SCALE = HOURS / 8.0
CHUNK_S = float(os.environ.get("REPRO_SCENARIO_CHUNK_S", str(120.0 * SCALE)))
CAMPAIGN_S = float(os.environ.get("REPRO_SCENARIO_CAMPAIGN_S", "1800"))

#: A crewed-station mix: life support is sacrosanct, science is the
#: product, housekeeping is deferrable.
STATION_WORKLOADS = (
    ScenarioWorkload("life-support", WorkloadCriticality.CRITICAL, 0.25),
    ScenarioWorkload("science", WorkloadCriticality.NORMAL, 0.35),
    ScenarioWorkload("housekeeping", WorkloadCriticality.LOW, 0.25),
)

WORKLOAD_MIXES = {
    "cubesat": DEFAULT_WORKLOADS,
    "station": STATION_WORKLOADS,
}

#: Static levels too weak to survive a storm (the survival gate asserts
#: they fail exactly where adaptive succeeds).
WEAK_STATICS = ("static-none", "static-scc-cfi", "static-bb-cfi")

SNAPSHOT: dict = {}

_MATRIX_CACHE: dict | None = None


def environments() -> tuple[EnvironmentTimeline, ...]:
    """The scenario matrix's environment axis.

    Every timescale — orbit period, SAA pass, SPE onsets and decay —
    sits at a fixed fraction of the scenario (:data:`SCALE`), so the
    matrix keeps its exact shape under the CI smoke budget's shorter
    ``REPRO_SCENARIO_HOURS``.  (The gates are calibrated on that mix;
    an absolute decay tau would turn a 2-hour smoke run into an
    all-storm scenario where static FULL_DMR is simply optimal.)
    """
    orbit = LeoOrbit(
        period_s=5_580.0 * SCALE,
        saa_pass_duration_s=780.0 * SCALE,
    )
    quiet = EnvironmentTimeline(
        orbit=orbit, seed=1, name="leo-quiet",
    )
    spe = EnvironmentTimeline(
        orbit=orbit,
        spe=SpeModel(
            onset_rate_per_day=0.0,
            forced_onsets=(0.5 * DURATION_S,),
            peak_storm_scale=50.0,
            decay_tau_s=1800.0 * SCALE,
        ),
        seed=1,
        name="leo-spe",
    )
    solar_max = EnvironmentTimeline(
        orbit=orbit,
        spe=SpeModel(
            onset_rate_per_day=0.0,
            forced_onsets=(0.09375 * DURATION_S, 0.5625 * DURATION_S),
            peak_storm_scale=80.0,
            decay_tau_s=1200.0 * SCALE,
        ),
        seed=1,
        name="leo-solar-max",
    )
    return (quiet, spe, solar_max)


def _matrix() -> dict:
    """Sweep every (environment, mix) cell once; cache across tests."""
    global _MATRIX_CACHE
    if _MATRIX_CACHE is None:
        _MATRIX_CACHE = {
            (timeline.name, mix_name): sweep_policies(
                timeline, workloads=mix,
                duration_s=DURATION_S, chunk_s=CHUNK_S,
            )
            for timeline in environments()
            for mix_name, mix in WORKLOAD_MIXES.items()
        }
    return _MATRIX_CACHE


def test_e16_adaptive_dominates_every_static():
    """Gate: adaptive beats every static level on compute/joule, per cell."""
    cells = []
    for (env, mix), reports in _matrix().items():
        adaptive = reports["adaptive"]
        best_static = max(
            (r for name, r in reports.items() if name != "adaptive"),
            key=lambda r: r.useful_compute_per_joule,
        )
        for name, report in reports.items():
            if name == "adaptive":
                continue
            assert (
                adaptive.useful_compute_per_joule
                > report.useful_compute_per_joule
            ), (
                f"{env} x {mix}: adaptive "
                f"{adaptive.useful_compute_per_joule:.4f} <= {name} "
                f"{report.useful_compute_per_joule:.4f} compute-s/J"
            )
        margin = (
            adaptive.useful_compute_per_joule
            / best_static.useful_compute_per_joule
            - 1.0
        )
        cells.append({
            "environment": env,
            "mix": mix,
            "adaptive_compute_per_joule": round(
                adaptive.useful_compute_per_joule, 6
            ),
            "best_static": best_static.policy,
            "best_static_compute_per_joule": round(
                best_static.useful_compute_per_joule, 6
            ),
            "margin_vs_best_static": round(margin, 6),
            "curves": {
                name: round(r.useful_compute_per_joule, 6)
                for name, r in reports.items()
            },
        })
    SNAPSHOT["duration_s"] = DURATION_S
    SNAPSHOT["chunk_s"] = CHUNK_S
    SNAPSHOT["cells"] = cells
    SNAPSHOT["min_margin_vs_best_static"] = min(
        c["margin_vs_best_static"] for c in cells
    )


def test_e16_critical_workload_survives_spe():
    """Gate: adaptive keeps the critical workload alive through the SPE."""
    survival = []
    for (env, mix), reports in _matrix().items():
        adaptive = reports["adaptive"]
        spe_s = adaptive.phase_seconds.get("spe", 0.0)
        assert adaptive.critical_survived_spe, (
            f"{env} x {mix}: adaptive critical workload did not survive "
            f"the SPE ({adaptive.critical_spe_sdc_events:.3f} expected "
            f"SDCs, {adaptive.critical_spe_downtime_s:.1f}s downtime in "
            f"{spe_s:.0f}s of storm)"
        )
        if spe_s > 0.0:
            for name in WEAK_STATICS:
                assert not reports[name].critical_survived_spe, (
                    f"{env} x {mix}: {name} unexpectedly survived the SPE "
                    f"— the survival gate is not discriminating"
                )
        survival.append({
            "environment": env,
            "mix": mix,
            "spe_seconds": round(spe_s, 1),
            "adaptive_spe_sdc": adaptive.critical_spe_sdc_events,
            "adaptive_spe_downtime_s": round(
                adaptive.critical_spe_downtime_s, 2
            ),
            "weak_statics_fail": spe_s > 0.0,
        })
    SNAPSHOT["survival"] = survival


def test_e16_timeline_injection_byte_identical():
    """Gate: untraced and traced timeline campaigns match byte for byte."""
    timeline = EnvironmentTimeline(
        orbit=LeoOrbit(),
        spe=SpeModel(
            onset_rate_per_day=0.0,
            forced_onsets=(CAMPAIGN_S / 3.0,),
            peak_storm_scale=50.0,
            decay_tau_s=1800.0,
        ),
        seed=5,
        name="leo-campaign",
    )
    module = build_program("isort")
    campaign = Campaign(
        module=module,
        func_name="isort",
        args=PROGRAMS["isort"].default_args,
        n_trials=1,  # replaced by the thinned arrival count
    )
    rate = 0.02  # quiet-sun trials per second over the window
    untraced = run_timeline_campaign(
        campaign, timeline, 0.0, CAMPAIGN_S, rate, seed=7,
    )
    sink = InMemorySink()
    traced = run_timeline_campaign(
        campaign, timeline, 0.0, CAMPAIGN_S, rate, seed=7,
        tracer=Tracer(sink),
    )
    assert np.array_equal(untraced.arrivals, traced.arrivals)
    assert untraced.phases == traced.phases
    assert untraced.result.counts.counts == traced.result.counts.counts
    assert untraced.result.trials == traced.result.trials
    assert len(untraced.arrivals) > 0, "thinning produced no trials"
    ends = [e for e in sink.events if isinstance(e, TrialEnd)]
    assert [e.trial for e in ends] == list(range(len(untraced.arrivals)))
    (campaign_end,) = [e for e in sink.events if isinstance(e, CampaignEnd)]
    assert campaign_end.counts == untraced.result.counts.as_dict()
    # The storm concentrates trials: the SPE window's arrival density
    # must exceed the quiet window's.
    spe_mask = untraced.arrivals >= CAMPAIGN_S / 3.0
    spe_frac = float(spe_mask.mean())
    assert spe_frac > 2.0 / 3.0, (
        f"only {spe_frac:.0%} of arrivals landed after SPE onset"
    )
    SNAPSHOT["campaign"] = {
        "window_s": CAMPAIGN_S,
        "trials": len(untraced.arrivals),
        "expected_trials": round(untraced.expected_trials, 2),
        "spe_arrival_fraction": round(spe_frac, 4),
        "counts": {
            k.value: v for k, v in untraced.result.counts.counts.items()
        },
        "byte_identical": True,
    }


def test_e16_write_report():
    assert "cells" in SNAPSHOT, "matrix gate must run first"
    assert "survival" in SNAPSHOT, "survival gate must run first"
    assert "campaign" in SNAPSHOT, "determinism gate must run first"
    write_perf_report(REPORT_PATH, SNAPSHOT)

    rows = []
    for cell in SNAPSHOT["cells"]:
        rows.append([
            cell["environment"],
            cell["mix"],
            f"{cell['adaptive_compute_per_joule']:.4f}",
            cell["best_static"],
            f"{cell['best_static_compute_per_joule']:.4f}",
            f"{cell['margin_vs_best_static']:+.2%}",
        ])
    body = fmt_table(
        ["environment", "mix", "adaptive s/J", "best static",
         "static s/J", "margin"],
        rows,
    )
    body += "\n\n"
    body += fmt_table(
        ["environment", "mix", "SPE s", "adaptive SDC@SPE",
         "adaptive down@SPE", "weak statics fail"],
        [[
            s["environment"], s["mix"], f"{s['spe_seconds']:.0f}",
            f"{s['adaptive_spe_sdc']:.3f}",
            f"{s['adaptive_spe_downtime_s']:.1f}s",
            str(s["weak_statics_fail"]),
        ] for s in SNAPSHOT["survival"]],
    )
    campaign = SNAPSHOT["campaign"]
    body += (
        f"\n\ntimeline campaign: {campaign['trials']} trials "
        f"(expected {campaign['expected_trials']}) over "
        f"{campaign['window_s']:.0f}s, "
        f"{campaign['spe_arrival_fraction']:.0%} after SPE onset, "
        f"untraced == traced byte-identical"
    )
    write_result(
        "E16",
        "orbital scenarios: phase-adaptive degradation vs static levels",
        body,
    )
