"""Unit tests for online refit, ensemble voting and fleet multiplexing."""

import numpy as np
import pytest

from repro.detect import (
    CurrentThresholdDetector, EnsembleDetector,
    FleetConfig, FleetScorer, LinearResidualDetector, OnlineRefit,
    ResidualCusumDetector, auc_weights,
)
from repro.errors import ConfigError, DetectorError
from repro.rng import make_rng


def _rows(n=400, d=4, seed=0, offset=0.0, step_after=None, step=0.0):
    rng = make_rng(seed)
    load = rng.random((n, d - 1))
    current = (
        0.5 + offset + 0.2 * load.mean(axis=1) + rng.normal(0, 0.005, n)
    )
    if step_after is not None:
        current[step_after:] += step
    return np.column_stack([load, current])


class TestOnlineRefit:
    def test_config_validation(self):
        inner = LinearResidualDetector()
        with pytest.raises(ConfigError):
            OnlineRefit(inner, window_rows=1)
        with pytest.raises(ConfigError):
            OnlineRefit(inner, refit_every=0)
        with pytest.raises(ConfigError):
            OnlineRefit(inner, drift_alpha=0.0)
        with pytest.raises(ConfigError):
            OnlineRefit(inner, drift_sigmas=-1.0)

    def test_partial_update_triggers_on_clean_rows(self):
        """Refit triggers fire at call granularity: a daemon feeding
        50-row batches gets one warm update per 100 clean rows."""
        online = OnlineRefit(
            LinearResidualDetector(), window_rows=500, refit_every=100
        )
        online.fit(_rows(seed=1))
        fresh = _rows(n=250, seed=2)
        for start in range(0, 250, 50):
            online.score_batch(fresh[start:start + 50])
        assert online.partial_updates == 2

    def test_anomalous_rows_never_enter_window(self):
        """An active latch-up must not poison the refit window."""
        online = OnlineRefit(
            CurrentThresholdDetector(), window_rows=300, refit_every=10**6
        )
        train = _rows(seed=3)
        online.fit(train)
        before = len(online._buffer)
        hot = _rows(n=50, seed=4)
        hot[:, -1] += 5.0  # far above any calibrated ceiling
        scores = online.score_batch(hot)
        assert (scores > online.threshold).all()
        assert len(online._buffer) == before

    def test_drift_triggers_refresh(self):
        """A sustained small current shift (within threshold) drifts the
        score distribution until the detector refreshes on new data."""
        online = OnlineRefit(
            LinearResidualDetector(),
            window_rows=200,
            refit_every=10**6,
            drift_sigmas=1.0,
            drift_alpha=0.05,
        )
        online.fit(_rows(n=300, seed=5))
        shifted = _rows(n=600, seed=6, offset=0.008)
        online.score_batch(shifted)
        assert online.refreshes >= 1
        assert abs(online.drift) < online.drift_sigmas

    def test_window_matrix_shape_and_bound(self):
        online = OnlineRefit(
            LinearResidualDetector(), window_rows=150, refit_every=10**6
        )
        online.fit(_rows(n=400, seed=7))
        assert online.window_matrix().shape == (150, 4)
        online.score_batch(_rows(n=80, seed=8))
        assert online.window_matrix().shape == (150, 4)

    def test_threshold_passthrough(self):
        inner = LinearResidualDetector()
        online = OnlineRefit(inner).fit(_rows(seed=9))
        assert online.threshold == inner.threshold


class TestEnsemble:
    def _members(self):
        return [
            CurrentThresholdDetector(),
            LinearResidualDetector(),
            ResidualCusumDetector(),
        ]

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            EnsembleDetector([])
        with pytest.raises(ConfigError):
            EnsembleDetector(self._members(), vote="plurality")
        with pytest.raises(ConfigError):
            EnsembleDetector(self._members(), weights=[1.0])
        with pytest.raises(ConfigError):
            EnsembleDetector(self._members(), weights=[-1.0, 1.0, 1.0])

    def test_weights_normalized(self):
        ensemble = EnsembleDetector(self._members(), weights=[2.0, 1.0, 1.0])
        assert sum(ensemble.weights) == pytest.approx(1.0)

    def test_fit_fits_all_members(self):
        ensemble = EnsembleDetector(self._members()).fit(_rows(seed=10))
        for member in ensemble.members:
            assert member.threshold < np.inf

    def test_clean_scores_below_threshold_anomalous_above(self):
        for vote in ("weighted", "majority"):
            ensemble = EnsembleDetector(self._members(), vote=vote)
            ensemble.fit(_rows(seed=11))
            clean = _rows(n=60, seed=12)
            scores = ensemble.score_batch(clean)
            ensemble.reset()
            assert (scores <= ensemble.threshold).mean() > 0.9, vote
            hot = _rows(n=60, seed=12)
            hot[:, -1] += 0.5
            assert ensemble.score_batch(hot).max() > ensemble.threshold
            ensemble.reset()

    def test_from_fitted_requires_fitted_members(self):
        with pytest.raises(DetectorError):
            EnsembleDetector.from_fitted(self._members(), _rows(seed=13))

    def test_from_fitted_skips_refitting(self):
        members = self._members()
        train = _rows(seed=14)
        for member in members:
            member.fit(train)
        thresholds = [m.threshold for m in members]
        ensemble = EnsembleDetector.from_fitted(members, train)
        assert [m.threshold for m in ensemble.members] == thresholds
        assert len(ensemble.score_batch(_rows(n=5, seed=15))) == 5

    def test_auc_weights_favor_discriminative_member(self):
        train = _rows(seed=16)
        members = [CurrentThresholdDetector(), LinearResidualDetector()]
        for member in members:
            member.fit(train)
        clean = _rows(n=150, seed=17)
        # A 20 mA delta: invisible to the absolute threshold, obvious to
        # the residual model.
        anomalous = _rows(n=150, seed=18, step_after=0, step=0.02)
        weights = auc_weights(members, clean, anomalous)
        assert weights[1] > weights[0]


class TestFleetScorer:
    def _fitted(self):
        return ResidualCusumDetector(h_sigma=40.0).fit(_rows(seed=20))

    def test_requires_fitted_detector(self):
        with pytest.raises(DetectorError):
            FleetScorer(ResidualCusumDetector(), ["a"])

    def test_board_ids_validated(self):
        detector = self._fitted()
        with pytest.raises(ConfigError):
            FleetScorer(detector, [])
        with pytest.raises(ConfigError):
            FleetScorer(detector, ["a", "a"])
        with pytest.raises(ConfigError):
            FleetConfig(consecutive_hits=0)

    def test_row_count_must_match_fleet(self):
        scorer = FleetScorer(self._fitted(), ["a", "b"])
        with pytest.raises(ConfigError):
            scorer.step(0.0, np.zeros((3, 4)))

    def test_warmup_scores_nothing(self):
        scorer = FleetScorer(
            self._fitted(), ["a", "b"], FleetConfig(warmup_s=5.0)
        )
        step = scorer.step(0.0, _rows(n=2, seed=21))
        assert step.warming_up and step.n_scored == 0
        assert np.isnan(step.scores).all()

    def test_alarm_requires_consecutive_hits(self):
        # Stateless detector: hot rows exceed the ceiling immediately,
        # so alarm timing depends only on the persistence counter.
        detector = CurrentThresholdDetector().fit(_rows(seed=20))
        scorer = FleetScorer(
            detector, ["a"],
            FleetConfig(consecutive_hits=4, warmup_s=0.0),
        )
        hot = _rows(n=10, seed=22)
        hot[:, -1] += 0.5
        alarm_ticks = []
        for t in range(10):
            step = scorer.step(float(t), hot[t:t + 1])
            if step.alarms:
                alarm_ticks.append(t)
        # Hits reset after each alarm: fires at the 4th, 8th, ... tick.
        assert alarm_ticks[0] == 3
        assert scorer.board("a").alarms

    def test_nan_rows_quarantine_and_release(self):
        scorer = FleetScorer(
            self._fitted(), ["a", "b"],
            FleetConfig(warmup_s=0.0, quarantine_after=2, release_after=3),
        )
        clean = _rows(n=20, seed=23)
        quarantined_at = released_at = None
        for t in range(12):
            rows = np.stack([clean[t], clean[t]])
            if 2 <= t < 5:
                rows[1, -1] = np.nan
            step = scorer.step(float(t), rows)
            if step.quarantined:
                quarantined_at = t
            if step.released:
                released_at = t
            if 2 <= t < 5:
                assert np.isnan(step.scores[1])
        assert quarantined_at == 3  # second consecutive bad row
        assert released_at == 7  # third consecutive good row
        state = scorer.board("b")
        assert not state.quarantined
        assert state.samples_dropped == 3

    def test_quarantined_board_cannot_alarm(self):
        scorer = FleetScorer(
            CurrentThresholdDetector().fit(_rows(seed=20)), ["a"],
            FleetConfig(
                warmup_s=0.0, consecutive_hits=1, quarantine_after=1,
                release_after=10**6,
            ),
        )
        hot = _rows(n=6, seed=24)
        hot[:, -1] += 0.5
        scorer.step(0.0, np.full((1, 4), np.nan))
        for t in range(1, 6):
            step = scorer.step(float(t), hot[t:t + 1])
            assert not step.alarms
        assert scorer.board("a").alarms == []

    def test_reset_clears_boards_and_state(self):
        scorer = FleetScorer(
            CurrentThresholdDetector().fit(_rows(seed=20)), ["a"],
            FleetConfig(warmup_s=0.0, consecutive_hits=1),
        )
        hot = _rows(n=3, seed=25)
        hot[:, -1] += 0.5
        for t in range(3):
            scorer.step(float(t), hot[t:t + 1])
        assert scorer.board("a").alarms
        scorer.reset()
        assert scorer.board("a").alarms == []
        assert scorer.board("a").samples_scored == 0
