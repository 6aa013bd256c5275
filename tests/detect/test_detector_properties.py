"""Property-based detector tests (hypothesis).

Four families of invariants the detection stack promises:

- **determinism** — fit + score is a pure function of (training rows,
  seed, input rows); two runs agree bitwise;
- **monotonicity** — a bigger injected current step never scores lower
  (threshold / z-score / CUSUM are monotone in the step size);
- **predict consistency** — ``predict`` is exactly ``score > threshold``
  whatever the calibrated threshold turned out to be;
- **refit idempotence** — refreshing :class:`OnlineRefit` twice on an
  unchanged window yields an identical detector.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detect import (
    CurrentThresholdDetector, CusumDetector, EllipticEnvelopeDetector,
    LinearResidualDetector, OnlineRefit, ResidualCusumDetector,
    RollingZScoreDetector,
)
from repro.rng import make_rng

#: Bounded examples: each example fits a detector, so keep the budget
#: small enough for tier-1 while still sweeping seeds and magnitudes.
FAST = settings(max_examples=15, deadline=None)


def _rows(n=300, seed=0, step_after=None, step=0.0):
    rng = make_rng(seed)
    load = rng.random((n, 2))
    current = 0.5 + 0.1 * load.sum(axis=1) + rng.normal(0, 0.004, n)
    if step_after is not None:
        current[step_after:] += step
    return np.column_stack([load, current])


def _monotone_detectors():
    return [
        CurrentThresholdDetector(),
        RollingZScoreDetector(),
        CusumDetector(),
        ResidualCusumDetector(),
    ]


class TestDeterminism:
    @FAST
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_fit_score_is_pure(self, seed):
        """Same training rows + same seed -> bitwise identical scores."""
        train = _rows(seed=seed)
        probe = _rows(n=40, seed=seed + 1, step_after=20, step=0.05)
        runs = []
        for _ in range(2):
            detector = EllipticEnvelopeDetector(seed=7).fit(train)
            runs.append(detector.score(probe))
        np.testing.assert_array_equal(runs[0], runs[1])

    @FAST
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_stateful_determinism_after_reset(self, seed):
        train = _rows(seed=seed)
        probe = _rows(n=60, seed=seed + 2)
        detector = ResidualCusumDetector().fit(train)
        first = detector.score(probe)
        detector.reset()
        second = detector.score(probe)
        np.testing.assert_array_equal(first, second)


class TestMonotonicity:
    @FAST
    @given(
        small=st.floats(min_value=0.0, max_value=0.05),
        extra=st.floats(min_value=0.0, max_value=0.5),
    )
    def test_bigger_step_never_scores_lower(self, small, extra):
        """max score over the faulted tail is monotone in step size."""
        train = _rows(seed=3)
        for detector in _monotone_detectors():
            detector.fit(train)
            lo = _rows(n=80, seed=4, step_after=40, step=small)
            hi = _rows(n=80, seed=4, step_after=40, step=small + extra)
            lo_score = detector.score(lo)[40:].max()
            if hasattr(detector, "reset"):
                detector.reset()
            hi_score = detector.score(hi)[40:].max()
            if hasattr(detector, "reset"):
                detector.reset()
            assert hi_score >= lo_score, type(detector).__name__


class TestPredictConsistency:
    @FAST
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        step=st.floats(min_value=0.0, max_value=0.2),
    )
    def test_predict_equals_score_vs_threshold(self, seed, step):
        train = _rows(seed=seed)
        probe = _rows(n=50, seed=seed + 1, step_after=25, step=step)
        for detector in (
            CurrentThresholdDetector(),
            LinearResidualDetector(),
            EllipticEnvelopeDetector(seed=5),
        ):
            detector.fit(train)
            flags = detector.predict(probe)
            scores = detector.score(probe)
            np.testing.assert_array_equal(
                flags, scores > detector.threshold
            )


class TestRefitIdempotence:
    @FAST
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_refresh_twice_on_same_window_is_identical(self, seed):
        """refresh() is idempotent: the window alone determines the fit."""
        train = _rows(seed=seed)
        online = OnlineRefit(
            LinearResidualDetector(), window_rows=200, refit_every=10**6
        )
        online.fit(train)
        probe = _rows(n=40, seed=seed + 9)

        online.refresh()
        coef_once = online.detector._coef.copy()
        scores_once = online.detector.score(probe)

        online.refresh()
        np.testing.assert_array_equal(coef_once, online.detector._coef)
        np.testing.assert_array_equal(
            scores_once, online.detector.score(probe)
        )
        assert online.refreshes == 2

    @FAST
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_refresh_matches_direct_fit_on_window(self, seed):
        """A refresh is exactly a fresh fit on the window matrix."""
        train = _rows(seed=seed)
        online = OnlineRefit(
            EllipticEnvelopeDetector(seed=11),
            window_rows=250, refit_every=10**6,
        )
        online.fit(train)
        window = online.window_matrix()
        online.refresh()
        direct = EllipticEnvelopeDetector(seed=11).fit(window)
        probe = _rows(n=30, seed=seed + 5)
        np.testing.assert_array_equal(
            online.detector.score(probe), direct.score(probe)
        )
