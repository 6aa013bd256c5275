"""A board destroyed mid-run: reported dead on one tick, NaN after.

:class:`repro.core.sel.SelFleetService` lists a board in
:attr:`FleetTickResult.dead` on the tick its sampling first finds it
destroyed, and on no other; from that tick on the scorer sees the
board's row as a sensor dropout (all NaN) while every other board keeps
scoring.
"""

import numpy as np

from repro.core.sel import FleetMember, SelFleetService
from repro.detect import FleetConfig, ResidualCusumDetector
from repro.hw.board import Board
from repro.hw.specs import RASPBERRY_PI_4
from repro.workloads.stress import cpu_memory_stress_schedule

N_BOARDS = 5
RATE_HZ = 2.0


def _service():
    members = [
        FleetMember(
            board_id=f"board-{b:02d}",
            board=Board(spec=RASPBERRY_PI_4, seed=500 + b),
            schedule=cpu_memory_stress_schedule(RASPBERRY_PI_4.n_cores),
        )
        for b in range(N_BOARDS)
    ]
    detector = ResidualCusumDetector(h_sigma=40.0).fit(
        np.random.default_rng(0).normal(size=(64, 8))
    )
    service = SelFleetService(detector, members, FleetConfig())
    scored = []
    step = service.scorer.step

    def spy(t, rows):
        scored.append(rows.copy())
        return step(t, rows)

    service.scorer.step = spy
    return service, members, scored


def _ticks(service, ticks):
    return [service.tick(tick / RATE_HZ) for tick in ticks]


class TestDeadBoards:
    def test_listed_on_the_tick_it_is_found_then_nan(self):
        service, members, scored = _service()
        results = _ticks(service, range(3))
        members[1].board.destroyed = True
        results += _ticks(service, range(3, 6))
        assert [r.dead for r in results] == [[], [], [], ["board-01"], [], []]
        assert [m.dead for m in members] == [False, True, False, False, False]
        for tick, rows in enumerate(scored):
            assert np.isnan(rows[1]).all() == (tick >= 3)
            assert np.isfinite(np.delete(rows, 1, axis=0)).all()
        for result in results[3:]:
            assert np.isnan(result.step.scores[1])

    def test_boards_found_on_one_tick_are_listed_in_fleet_order(self):
        service, members, scored = _service()
        _ticks(service, range(2))
        members[4].board.destroyed = True
        members[2].board.destroyed = True
        results = _ticks(service, range(2, 4))
        assert [r.dead for r in results] == [["board-02", "board-04"], []]
        assert np.isnan(scored[-1][[2, 4]]).all()
        assert np.isfinite(scored[-1][[0, 1, 3]]).all()
