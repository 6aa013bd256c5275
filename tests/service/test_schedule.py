"""The service's call order across shards, pinned call for call.

The service works in windows of ``max_inflight_ticks`` ticks (the last
may be short).  In the first window each shard samples its ticks and
then scores them before the next shard starts; in every later window
every shard samples the window's ticks, and then every shard scores
them, in tick order.  The shed pattern and the trace's event order
follow from this order, so it is spelled out here tick by tick.
"""

import numpy as np

from repro.detect import ResidualCusumDetector
from repro.service import (
    AsyncFleetService,
    ReplaySource,
    ServiceConfig,
    ShardIngest,
    make_members,
)

RATE_HZ = 2.0


def produce(shard, ticks):
    return [(shard, "produce", tick) for tick in ticks]


def assemble(shard, ticks):
    return [(shard, "assemble", tick) for tick in ticks]


def schedule(monkeypatch, n_shards, n_ticks, window):
    """Run a replay and return its ``(shard, call, tick)`` sequence."""
    calls = []
    real_produce, real_assemble = ShardIngest.produce, ShardIngest.assemble

    def spy_produce(self, tick, t):
        calls.append((self.shard, "produce", tick))
        return real_produce(self, tick, t)

    def spy_assemble(self, tick):
        calls.append((self.shard, "assemble", tick))
        return real_assemble(self, tick)

    monkeypatch.setattr(ShardIngest, "produce", spy_produce)
    monkeypatch.setattr(ShardIngest, "assemble", spy_assemble)
    n_boards = 2 * n_shards
    detector = ResidualCusumDetector(h_sigma=40.0).fit(
        np.random.default_rng(0).normal(size=(64, 8))
    )
    service = AsyncFleetService(
        detector,
        make_members(n_boards, seed=890),
        service=ServiceConfig(n_shards=n_shards, max_inflight_ticks=window),
        source=ReplaySource(
            np.random.default_rng(3).normal(size=(n_ticks, n_boards, 8))
        ),
    )
    report = service.run(duration_s=n_ticks / RATE_HZ, rate_hz=RATE_HZ)
    assert report.n_ticks == n_ticks and report.n_shards == n_shards
    return calls


class TestSchedule:
    def test_two_shards_windows_of_ten(self, monkeypatch):
        first, second, last = range(10), range(10, 20), range(20, 25)
        assert schedule(monkeypatch, 2, 25, 10) == (
            produce(0, first) + assemble(0, first)
            + produce(1, first) + assemble(1, first)
            + produce(0, second) + produce(1, second)
            + assemble(0, second) + assemble(1, second)
            + produce(0, last) + produce(1, last)
            + assemble(0, last) + assemble(1, last)
        )

    def test_three_shards_lockstep(self, monkeypatch):
        want = []
        for shard in range(3):
            want += produce(shard, [0]) + assemble(shard, [0])
        for tick in range(1, 7):
            want += produce(0, [tick]) + produce(1, [tick])
            want += produce(2, [tick])
            want += assemble(0, [tick]) + assemble(1, [tick])
            want += assemble(2, [tick])
        assert schedule(monkeypatch, 3, 7, 1) == want
