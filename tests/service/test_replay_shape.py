"""A replay that does not fit the fleet is a typed error, raised early.

A recording's board count must equal the fleet's, checked when the
service is built, and it must hold every tick the run asks for,
checked before the service's loop scores anything.  Each error names the
recording's shape and what the fleet or the run needed.
"""

import numpy as np
import pytest

from repro.detect import ResidualCusumDetector
from repro.errors import ConfigError
from repro.service import AsyncFleetService, ReplaySource, make_members


def _detector():
    return ResidualCusumDetector(h_sigma=40.0).fit(
        np.random.default_rng(0).normal(size=(64, 8))
    )


def _recording(n_ticks=4, n_boards=4):
    return np.random.default_rng(1).normal(size=(n_ticks, n_boards, 8))


class TestReplayShape:
    def test_more_members_than_recorded_boards(self):
        with pytest.raises(
            ConfigError, match=r"shape \(4, 4, 8\) does not match 6 boards"
        ):
            AsyncFleetService(
                _detector(), make_members(6, seed=840),
                source=ReplaySource(_recording()),
            )

    def test_fewer_members_than_recorded_boards(self):
        with pytest.raises(
            ConfigError, match=r"shape \(4, 4, 8\) does not match 2 boards"
        ):
            AsyncFleetService(
                _detector(), make_members(2, seed=840),
                source=ReplaySource(_recording()),
            )

    def test_run_longer_than_recording_fails_before_scoring(self):
        service = AsyncFleetService(
            _detector(), make_members(4, seed=840),
            source=ReplaySource(_recording()),
        )
        with pytest.raises(
            ConfigError, match=r"shape \(4, 4, 8\) holds 4 ticks.* needs 6"
        ):
            service.run(duration_s=3.0, rate_hz=2.0)
        assert service.supervisor.ticks_applied == 0
