"""The array fleet scorer against its per-board spec.

:class:`repro.detect.fleet.FleetScorer` keeps every board's state in
arrays and fills the score histogram once per tick;
:class:`tests.detect.per_board_scorer.PerBoardFleetScorer` is the
per-board loop it replaced.  On random fleets — sensor dropouts crossing
the quarantine and release thresholds, warmup, threshold-scale changes,
hit streaks, and scores that are signed zeros, ties, NaN or infinite —
both must agree after every tick on the :class:`FleetStep`, on every
board's state and on the health rollup, floats compared by their bits.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.detect import (
    CurrentThresholdDetector,
    EnsembleDetector,
    FleetConfig,
    FleetScorer,
    ResidualCusumDetector,
)
from repro.detect.base import AnomalyDetector
from repro.errors import ConfigError
from tests.detect.per_board_scorer import PerBoardFleetScorer
from tests.identity import canonical


class ScriptedDetector(AnomalyDetector):
    """Stateless; a row ``[value, kind]`` scores ``value`` (kind 0),
    +inf (1), -inf (2) or NaN (3), so a test picks every score."""

    def _fit(self, rows):
        pass

    def _score(self, rows):
        value, kind = rows[:, 0], rows[:, 1]
        return np.select(
            [kind == 1, kind == 2, kind == 3],
            [np.inf, -np.inf, np.nan],
            value,
        )

    def score_batch(self, rows):
        return self.score(rows)

    @property
    def threshold(self):
        return 1.0


def _telemetry(rng, n):
    load = rng.random((n, 3))
    current = 0.5 + 0.2 * load.mean(axis=1) + rng.normal(0, 0.005, n)
    return np.column_stack([load, current])


_TRAIN = _telemetry(np.random.default_rng(0), 400)
_CUSUM = ResidualCusumDetector(h_sigma=4.0).fit(_TRAIN)
DETECTORS = {
    "scripted": ScriptedDetector().fit(np.zeros((2, 2))),
    "cusum": _CUSUM,
    "ensemble": EnsembleDetector.from_fitted(
        [_CUSUM, CurrentThresholdDetector().fit(_TRAIN)], _TRAIN
    ),
}

#: Scores clustered on ties and on the threshold (1.0 at scale 1).
SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 8.0, 9.5, 5e-324]),
    st.floats(min_value=-4.0, max_value=12.0, allow_nan=False),
)
#: One board's row for one tick: a score, a non-finite score, or a
#: dropout (a NaN entry in the row itself).
CELLS = st.one_of(
    SCORES.map(lambda v: (v, 0.0)),
    st.sampled_from([(0.0, 1.0), (0.0, 2.0), (0.0, 3.0), (np.nan, 0.0)]),
)
CONFIGS = st.builds(
    FleetConfig,
    consecutive_hits=st.integers(1, 4),
    warmup_s=st.sampled_from([0.0, 0.5, 2.0]),
    quarantine_after=st.integers(1, 3),
    release_after=st.integers(1, 4),
)
#: A threshold-scale change before a tick, or none.
SCALES = st.one_of(st.none(), st.sampled_from([0.25, 0.5, 1.0, 2.0]))


def assert_steps_equal(got, want):
    assert got.t == want.t
    assert got.scores.tobytes() == want.scores.tobytes()
    assert got.anomalous.tobytes() == want.anomalous.tobytes()
    assert canonical(
        (got.alarms, got.quarantined, got.released, got.warming_up)
    ) == canonical(
        (want.alarms, want.quarantined, want.released, want.warming_up)
    )
    assert got.alarms == sorted(got.alarms)


def assert_scorers_equal(got: FleetScorer, want: PerBoardFleetScorer):
    assert canonical(
        [got.board(board_id) for board_id in got.board_ids]
    ) == canonical(want.boards)
    assert got.alarm_times() == {
        b.board_id: b.alarms for b in want.boards if b.alarms
    }
    assert canonical(got.health.merge_key()) == canonical(
        want.health.merge_key()
    )
    assert canonical(
        {name: h.total for name, h in got.health.histograms.items()}
    ) == canonical(
        {name: h.total for name, h in want.health.histograms.items()}
    )


def run_both(detector, config, ticks, scales):
    ids = [f"b{i}" for i in range(ticks[0].shape[0])]
    got = FleetScorer(detector, ids, config)
    want = PerBoardFleetScorer(detector, ids, config)
    for k, (rows, scale) in enumerate(zip(ticks, scales)):
        if scale is not None:
            got.set_threshold_scale(scale)
            want.set_threshold_scale(scale)
        t = 0.5 * k
        assert_steps_equal(got.step(t, rows.copy()), want.step(t, rows.copy()))
        assert_scorers_equal(got, want)
    return got


class TestScriptedScores:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), config=CONFIGS)
    def test_array_scorer_equals_per_board_spec(self, data, config):
        n_boards = data.draw(st.integers(1, 6))
        n_ticks = data.draw(st.integers(1, 30))
        ticks = [
            np.array(data.draw(st.lists(
                CELLS, min_size=n_boards, max_size=n_boards
            )))
            for _ in range(n_ticks)
        ]
        scales = data.draw(st.lists(
            SCALES, min_size=n_ticks, max_size=n_ticks
        ))
        run_both(DETECTORS["scripted"], config, ticks, scales)

    def test_signed_zero_scores_keep_the_first_seen_extrema(self):
        config = FleetConfig(warmup_s=0.0)
        ticks = [
            np.array([(0.0, 0.0), (-0.0, 0.0)]),
            np.array([(-0.0, 0.0), (0.0, 0.0)]),
        ]
        scorer = run_both(DETECTORS["scripted"], config, ticks, [None] * 2)
        hist = scorer.health.histograms["fleet.score"]
        assert repr(hist.min) == "0.0" and repr(hist.max) == "0.0"


class TestStreamingDetectors:
    @settings(max_examples=40, deadline=None)
    @given(
        detector=st.sampled_from(["cusum", "ensemble"]),
        config=CONFIGS,
        seed=st.integers(0, 2**16),
        n_boards=st.integers(1, 6),
        n_ticks=st.integers(1, 40),
        dropout=st.sampled_from([0.0, 0.2, 0.5]),
    )
    def test_array_scorer_equals_per_board_spec(
        self, detector, config, seed, n_boards, n_ticks, dropout
    ):
        rng = np.random.default_rng(seed)
        rows = _telemetry(rng, n_ticks * n_boards).reshape(
            n_ticks, n_boards, 4
        )
        # Latch-ups: a current step on some boards from a random tick.
        onset = rng.integers(0, n_ticks, size=n_boards)
        latched = rng.random(n_boards) < 0.5
        for board in np.flatnonzero(latched):
            rows[onset[board]:, board, -1] += 0.03
        rows[rng.random((n_ticks, n_boards)) < dropout, 0] = np.nan
        scales = [
            (0.5, 1.0, 2.0)[k % 3] if k % 7 == 6 else None
            for k in range(n_ticks)
        ]
        run_both(DETECTORS[detector], config, list(rows), scales)


class TestCounterKeys:
    def test_only_dropped_is_written_with_zero(self):
        scorer = FleetScorer(
            DETECTORS["scripted"], ["a", "b"], FleetConfig(warmup_s=5.0)
        )
        scorer.step(0.0, np.array([(0.5, 0.0), (2.0, 0.0)]))
        assert scorer.health.counters == {"fleet.dropped": 0}
        assert scorer.health.histograms == {}

    def test_board_keys_appear_when_first_incremented(self):
        scorer = FleetScorer(
            DETECTORS["scripted"], ["a", "b"],
            FleetConfig(warmup_s=0.0, consecutive_hits=1),
        )
        scorer.step(0.0, np.array([(0.5, 0.0), (np.nan, 0.0)]))
        assert scorer.health.counters == {
            "fleet.scored": 1, "board.a.scored": 1, "fleet.dropped": 1,
        }
        scorer.step(1.0, np.array([(2.0, 0.0), (2.0, 0.0)]))
        assert scorer.health.counters["board.a.alarms"] == 1
        assert scorer.health.counters["board.b.alarms"] == 1
        assert "board.b.quarantines" not in scorer.health.counters

    def test_unknown_board_is_a_config_error(self):
        scorer = FleetScorer(DETECTORS["scripted"], ["a"])
        with pytest.raises(ConfigError, match="unknown board id"):
            scorer.board("z")
