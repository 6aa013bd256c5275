"""Timeline-driven campaigns: environment-shaped arrivals."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.faults.campaign import (
    Campaign,
    run_timeline_campaign,
    sample_trial_arrivals,
)
from repro.radiation.schedule import (
    EnvironmentTimeline,
    MissionPhase,
    SpeModel,
)
from repro.rng import make_rng
from repro.workloads.irprograms import PROGRAMS, build_program

WINDOW_S = 1_800.0
ONSET_S = 600.0


def _timeline():
    return EnvironmentTimeline(
        spe=SpeModel(
            onset_rate_per_day=0.0,
            forced_onsets=(ONSET_S,),
            peak_storm_scale=50.0,
            decay_tau_s=1800.0,
        ),
        seed=5,
        name="campaign-storm",
    )


def _campaign(name="isort"):
    return Campaign(
        module=build_program(name),
        func_name=name,
        args=PROGRAMS[name].default_args,
        n_trials=1,  # replaced by the thinned arrival count
    )


def _run(seed=7, rate=0.02):
    return run_timeline_campaign(
        _campaign(), _timeline(), 0.0, WINDOW_S, rate, seed=seed,
    )


class TestTimelineCampaign:
    def test_trial_count_comes_from_thinning(self):
        result = _run()
        assert len(result.arrivals) == len(result.result.trials)
        assert len(result.phases) == len(result.arrivals)
        # ~36 quiet trials + the storm surge: far above the flat count.
        assert len(result.arrivals) > 50

    def test_expected_trials_matches_timeline_integral(self):
        result = _run()
        timeline = _timeline()
        assert result.expected_trials == pytest.approx(
            timeline.expected_events(0.02, 0.0, WINDOW_S, "register")
        )
        # The Poisson draw lands within noise of its own mean.
        sigma = np.sqrt(result.expected_trials)
        assert abs(len(result.arrivals) - result.expected_trials) < 6 * sigma

    def test_storm_concentrates_trials(self):
        result = _run()
        in_storm = np.mean(result.arrivals >= ONSET_S)
        assert in_storm > 2.0 / 3.0

    def test_trials_in_phase_partitions_trials(self):
        result = _run()
        by_phase = [
            result.trials_in_phase(phase) for phase in MissionPhase
        ]
        assert sum(len(t) for t in by_phase) == len(result.result.trials)
        assert len(result.trials_in_phase(MissionPhase.SPE)) > 0

    def test_same_seed_same_result(self):
        a, b = _run(seed=3), _run(seed=3)
        assert np.array_equal(a.arrivals, b.arrivals)
        assert a.result.trials == b.result.trials

    def test_different_seed_different_arrivals(self):
        a, b = _run(seed=3), _run(seed=4)
        assert not np.array_equal(a.arrivals, b.arrivals)

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigError):
            _run(rate=-0.1)

    def test_sample_trial_arrivals_matches_schedule_entry_point(self):
        from repro.radiation.schedule import sample_arrivals

        direct = sample_arrivals(
            _timeline(), 0.0, WINDOW_S, 0.02, make_rng(9), "register"
        )
        wrapped = sample_trial_arrivals(
            _timeline(), 0.0, WINDOW_S, 0.02, make_rng(9), "register"
        )
        assert np.array_equal(direct, wrapped)

