"""Machine workload and campaign tests."""

import hashlib

import pytest

from repro.faults.model import FaultTarget
from repro.faults.outcomes import FaultOutcome
from repro.machine.cache import CachePlugin
from repro.machine.cpu import Machine, RunOutcome
from repro.machine.inject import MachineCampaign, run_machine_campaign
from repro.machine.isa import to_signed
from repro.machine.programs import MACHINE_PROGRAMS, RESULT_ADDR, load_program


@pytest.mark.parametrize("name", sorted(MACHINE_PROGRAMS))
def test_programs_halt_with_results(name):
    machine = Machine(load_program(name), cache=CachePlugin())
    assert machine.run() is RunOutcome.HALTED
    assert machine.read_word(RESULT_ADDR) != 0


def test_sum_squares_value():
    machine = Machine(load_program("sum_squares"))
    machine.run()
    expected = sum(i * i for i in range(1, 201))
    assert machine.read_word(RESULT_ADDR) == expected


def test_bubble_sort_actually_sorts():
    machine = Machine(load_program("bubble_sort"))
    machine.run()
    values = [
        to_signed(machine.read_word(0x100 + 8 * i)) for i in range(16)
    ]
    assert values == sorted(values)


class TestMachineCampaigns:
    def test_register_campaign(self):
        result = run_machine_campaign(
            MachineCampaign("sum_squares", n_trials=60), seed=1
        )
        assert result.counts.total == 60
        assert result.golden_steps > 0

    def test_reproducible(self):
        a = run_machine_campaign(
            MachineCampaign("bubble_sort", n_trials=40), seed=3
        )
        b = run_machine_campaign(
            MachineCampaign("bubble_sort", n_trials=40), seed=3
        )
        assert a.counts.as_dict() == b.counts.as_dict()

    def test_memory_vs_cache_classification(self):
        cache_result = run_machine_campaign(
            MachineCampaign("bubble_sort", n_trials=60,
                            target=FaultTarget.CACHE),
            seed=5,
        )
        dram_result = run_machine_campaign(
            MachineCampaign("bubble_sort", n_trials=60,
                            target=FaultTarget.MEMORY),
            seed=5,
        )
        # Cache-resident words are the hot working set: flipping them must
        # corrupt the output far more often than flipping cold DRAM.
        assert (
            cache_result.counts.sdc_rate > dram_result.counts.sdc_rate
        )
        fired_cache = [t for t in cache_result.trials if t.in_cache is not None]
        assert all(t.in_cache for t in fired_cache)

    def test_register_faults_can_crash_or_hang(self):
        result = run_machine_campaign(
            MachineCampaign("bubble_sort", n_trials=150), seed=7
        )
        counts = result.counts.counts
        assert counts[FaultOutcome.CRASH] + counts[FaultOutcome.HANG] > 0


def _trials_digest(result) -> str:
    h = hashlib.sha256()
    for t in result.trials:
        h.update(repr(
            (t.step, t.location, t.bit, t.outcome.value, t.in_cache)
        ).encode())
    return h.hexdigest()[:16]


#: Trial-record digests of 20-trial bubble_sort campaigns, recorded while
#: every trial drew from a numpy Generator forked per trial; the exact
#: trial streams must draw the same faults.
MACHINE_DIGESTS = {
    (FaultTarget.REGISTER, 0): "cd3381474b1200e9",
    (FaultTarget.REGISTER, 11): "47f66e91654a3594",
    (FaultTarget.REGISTER, 2**70 + 5): "9ef5bc11d089dffc",
    (FaultTarget.MEMORY, 0): "c254d60ccbafb0b0",
    (FaultTarget.MEMORY, 11): "bafd95d0e63fe4b4",
    (FaultTarget.MEMORY, 2**70 + 5): "e90bdb09d67b674d",
    (FaultTarget.CACHE, 0): "7e649ceb83bedbc5",
    (FaultTarget.CACHE, 11): "bc0d09be23bff64e",
    (FaultTarget.CACHE, 2**70 + 5): "fe27d5b3672d05eb",
}


@pytest.mark.parametrize(
    "target,seed", sorted(MACHINE_DIGESTS, key=lambda k: (k[0].value, k[1]))
)
def test_machine_campaign_records_pinned(target, seed):
    result = run_machine_campaign(
        MachineCampaign("bubble_sort", n_trials=20, target=target), seed=seed
    )
    assert _trials_digest(result) == MACHINE_DIGESTS[target, seed]
