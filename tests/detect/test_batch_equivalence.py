"""Differential tests: batched scoring is bitwise per-sample scoring.

``score`` on a batch of rows is vectorized; its contract is not "close
to" but *numerically identical to* calling ``score`` on each row in
order — so every equality here is ``assert_array_equal``, never
allclose.  The same contract covers the multi-stream protocol
(``make_stream_state`` / ``step_streams``): interleaving N boards
through one detector must reproduce each board's dedicated sequential
scores bit for bit.
"""

import numpy as np
import pytest

from repro.detect import (
    CurrentThresholdDetector, CusumDetector, EllipticEnvelopeDetector,
    EnsembleDetector, EwmaDetector, LinearResidualDetector, OnlineRefit,
    ResidualCusumDetector, RollingZScoreDetector,
)
from repro.errors import DetectorError
from repro.rng import make_rng


def _telemetry_rows(n=400, d=4, seed=0, shift_after=None, shift=0.0):
    """(features..., current) rows mimicking board telemetry."""
    rng = make_rng(seed)
    load = rng.random((n, d - 1))
    current = 0.5 + 0.2 * load.mean(axis=1) + rng.normal(0, 0.005, n)
    if shift_after is not None:
        current[shift_after:] += shift
    return np.column_stack([load, current])


def _all_detectors():
    return {
        "threshold": CurrentThresholdDetector(),
        "zscore": RollingZScoreDetector(),
        "linres": LinearResidualDetector(),
        "elliptic": EllipticEnvelopeDetector(seed=3),
        "ewma": EwmaDetector(),
        "cusum": CusumDetector(),
        "rescusum": ResidualCusumDetector(),
        # Huge refit_every: a warm update mid-test would change the model
        # at different points in the reference vs batched runs (row order
        # differs), which is a real model change, not a batching bug.
        "online": OnlineRefit(LinearResidualDetector(), refit_every=10**6),
        "ensemble": EnsembleDetector(
            [CurrentThresholdDetector(), LinearResidualDetector(),
             ResidualCusumDetector()]
        ),
    }


DETECTOR_NAMES = sorted(_all_detectors())


def _fresh(name):
    return _all_detectors()[name]


def _reset(detector):
    reset = getattr(detector, "reset", None)
    if callable(reset):
        reset()


@pytest.fixture(params=DETECTOR_NAMES)
def fitted(request):
    detector = _fresh(request.param)
    detector.fit(_telemetry_rows(seed=1))
    return detector


class TestScoreBatchEquivalence:
    def test_batch_equals_per_sample_loop(self, fitted):
        """The core contract, on mixed clean/anomalous telemetry."""
        rows = _telemetry_rows(n=257, seed=2, shift_after=150, shift=0.05)
        batched = fitted.score(rows)
        _reset(fitted)
        looped = np.concatenate(
            [fitted.score(rows[i:i + 1]) for i in range(len(rows))]
        )
        np.testing.assert_array_equal(batched, looped)

    def test_single_row_batch(self, fitted):
        row = _telemetry_rows(n=1, seed=3)
        batched = fitted.score(row)
        _reset(fitted)
        single = fitted.score_one(row[0])
        np.testing.assert_array_equal(batched, [single])
        assert batched.shape == (1,)

    def test_empty_batch(self, fitted):
        empty = np.empty((0, 4))
        scores = fitted.score(empty)
        assert scores.shape == (0,)

    def test_predict_batch_consistent(self, fitted):
        rows = _telemetry_rows(n=64, seed=4, shift_after=32, shift=0.08)
        flags = fitted.predict(rows)
        _reset(fitted)
        scores = fitted.score(rows)
        np.testing.assert_array_equal(flags, scores > fitted.threshold)

    def test_split_batches_equal_one_batch(self, fitted):
        """Scoring in chunks must agree with one big batch (stateful
        detectors carry their accumulator across the chunk boundary)."""
        rows = _telemetry_rows(n=100, seed=5)
        whole = fitted.score(rows)
        _reset(fitted)
        parts = np.concatenate(
            [fitted.score(rows[:37]), fitted.score(rows[37:])]
        )
        np.testing.assert_array_equal(whole, parts)

    def test_unfitted_batch_raises(self):
        for name in DETECTOR_NAMES:
            with pytest.raises(DetectorError):
                _fresh(name).score(np.zeros((3, 4)))


class TestStreamEquivalence:
    N_BOARDS = 6
    N_TICKS = 50

    def _board_streams(self):
        streams = [
            _telemetry_rows(n=self.N_TICKS, seed=100 + b)
            for b in range(self.N_BOARDS)
        ]
        # One board sees a latch-up-sized current step.
        streams[2][self.N_TICKS // 2:, -1] += 0.05
        return streams

    def test_streams_equal_sequential_per_board(self, fitted):
        """Interleaved multi-board scoring == N dedicated daemons, and
        each returned score array stays as returned while later ticks
        are scored (the fleet scorer keeps them until it folds)."""
        streams = self._board_streams()
        reference = np.empty((self.N_TICKS, self.N_BOARDS))
        for b, stream in enumerate(streams):
            _reset(fitted)
            for t in range(self.N_TICKS):
                reference[t, b] = fitted.score(stream[t:t + 1])[0]
        _reset(fitted)
        state = fitted.make_stream_state(self.N_BOARDS)
        kept = []
        for t in range(self.N_TICKS):
            rows = np.stack([stream[t] for stream in streams])
            scores, state = fitted.step_streams(rows, state)
            kept.append(scores)
        np.testing.assert_array_equal(reference, np.stack(kept))

    def test_mutating_returned_scores_does_not_corrupt_state(self, fitted):
        """Returned score arrays must not alias internal stream state."""
        streams = self._board_streams()
        state = fitted.make_stream_state(self.N_BOARDS)
        rows = np.stack([stream[0] for stream in streams])
        scores, state = fitted.step_streams(rows, state)
        expected_next, _ = fitted.step_streams(
            np.stack([stream[1] for stream in streams]),
            fitted.make_stream_state(self.N_BOARDS)
            if state is None else state,
        )
        _reset(fitted)
        state2 = fitted.make_stream_state(self.N_BOARDS)
        scores2, state2 = fitted.step_streams(rows, state2)
        scores2.fill(1e9)  # hostile caller
        got_next, _ = fitted.step_streams(
            np.stack([stream[1] for stream in streams]), state2
        )
        np.testing.assert_array_equal(expected_next, got_next)
