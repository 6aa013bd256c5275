"""The array fleet scorer against its per-board spec.

:class:`repro.detect.fleet.FleetScorer` keeps every board's state in
arrays and fills the score histogram once per tick;
:class:`tests.detect.per_board_scorer.PerBoardFleetScorer` is the
per-board loop it replaced.  On random fleets — sensor dropouts crossing
the quarantine and release thresholds, warmup, threshold-scale changes,
hit streaks, and scores that are signed zeros, ties, NaN or infinite —
both must agree after every tick on the :class:`FleetStep`, on every
board's state and on the health rollup, floats compared by their bits.

The array scorer folds its waiting scores into the histogram only when
the histogram is read or copied (or once ``FOLD_SCORES`` wait), so a
read after every tick would fold every tick.  ``TestFoldAcrossTicks``
reads at random ticks only, and restores a mid-run copy, as a shard's
crash recovery does.
"""

from copy import deepcopy

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
from repro.detect.fleet import FOLD_SCORES
from repro.errors import ConfigError
from repro.obs.aggregate import SCORE_BOUNDS
from repro.obs.metrics import Histogram
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


def _scripted_ticks(data, n_boards, n_ticks):
    return [
        np.array(data.draw(st.lists(
            CELLS, min_size=n_boards, max_size=n_boards
        )))
        for _ in range(n_ticks)
    ]


class TestScriptedScores:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), config=CONFIGS)
    def test_array_scorer_equals_per_board_spec(self, data, config):
        n_boards = data.draw(st.integers(1, 6))
        n_ticks = data.draw(st.integers(1, 30))
        ticks = _scripted_ticks(data, n_boards, n_ticks)
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


class TestFoldAcrossTicks:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), config=CONFIGS)
    def test_reads_at_random_ticks_and_a_restored_copy(self, data, config):
        """Steps compared every tick, state only at random ticks; a copy
        taken at tick ``c`` is restored at tick ``r`` and ticks ``c+1``
        on are stepped again, on both scorers."""
        detector = DETECTORS["scripted"]
        n_boards = data.draw(st.integers(1, 6))
        n_ticks = data.draw(st.integers(2, 40))
        ticks = _scripted_ticks(data, n_boards, n_ticks)
        reads = data.draw(st.sets(st.integers(0, n_ticks - 1)))
        c = data.draw(st.integers(0, n_ticks - 2))
        r = data.draw(st.integers(c + 1, n_ticks - 1))
        ids = [f"b{i}" for i in range(n_boards)]
        got = FleetScorer(detector, ids, config)
        want = PerBoardFleetScorer(detector, ids, config)

        def step(k):
            t = 0.5 * k
            assert_steps_equal(
                got.step(t, ticks[k].copy()), want.step(t, ticks[k].copy())
            )
            if k in reads:
                assert_scorers_equal(got, want)

        for k in range(r + 1):
            step(k)
            if k == c:
                snapshot = got.boards.copy()
                lengths = list(map(len, got.boards.alarms))
                spec = deepcopy(want, {id(detector): detector})
        got.boards = snapshot.copy(lengths)
        want = spec
        for k in range(c + 1, n_ticks):
            step(k)
        assert_scorers_equal(got, want)

    def test_an_unread_scorer_folds_at_the_fold_count(self):
        """Past ``FOLD_SCORES`` scores with no read, the scorer holds
        fewer than that many unfolded, and its histogram still equals
        one record per score."""
        rng = np.random.default_rng(5)
        n_boards, n_ticks = 256, FOLD_SCORES // 256 + 44
        scorer = FleetScorer(
            DETECTORS["scripted"], [f"b{i}" for i in range(n_boards)],
            FleetConfig(warmup_s=0.0),
        )
        one = Histogram(SCORE_BOUNDS)
        folds = 0
        for k in range(n_ticks):
            rows = np.column_stack([
                rng.uniform(-1.0, 10.0, n_boards), np.zeros(n_boards)
            ])
            held = scorer.boards.n_unfolded
            scorer.step(float(k), rows)
            for value in rows[:, 0]:
                one.record(value)
            boards = scorer.boards
            folds += boards.n_unfolded < held
            assert boards.n_unfolded == sum(map(len, boards.unfolded))
            assert boards.n_unfolded < FOLD_SCORES
        assert folds == 1 and 0 < scorer.boards.n_unfolded
        hist = scorer.health.histograms["fleet.score"]
        assert scorer.boards.n_unfolded == 0
        assert canonical((hist.merge_key(), hist.total)) == canonical(
            (one.merge_key(), one.total)
        )


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
