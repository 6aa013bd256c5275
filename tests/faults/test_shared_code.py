"""The per-module compiled code and golden runs every campaign shares.

:func:`repro.ir.interp.module_code` keeps a module's compiled blocks on
the module object: the golden run, the one run that records its site
table and every trial of every campaign over that module run the same
code.  Its golden runs sit in the same record
(:func:`repro.faults.campaign.run_golden`).  Three traps:

* an identical clone must compile its own blocks, or the hang shortcut,
  which recognises a loop by its blocks, stops firing on the clone; a
  clone or copy also runs golden once for itself, so golden's snapshot
  table holds its blocks;
* a module changed in place must run its new IR, never code compiled
  or a golden run made from the old;
* neither may keep its module alive.
"""

from __future__ import annotations

import copy
import gc
import pickle
import weakref

import pytest

from repro.faults.campaign import Campaign, run_campaign, run_golden
from repro.faults.outcomes import FaultOutcome
from repro.ir.clone import clone_module
from repro.ir.costmodel import CORTEX_A53
from repro.ir.interp import Interpreter, module_code, module_record
from repro.ir.loops import CountedLoop
from repro.ir.printer import print_module
from repro.ir.refinterp import ReferenceInterpreter
from repro.ir.values import Constant
from repro.perf.cache import GOLDEN_CACHE
from repro.workloads.irprograms import PROGRAMS, build_program

from tests.identity import trials_digest


def _campaign(module, name: str, n_trials: int = 100) -> Campaign:
    return Campaign(
        module=module, func_name=name, args=PROGRAMS[name].default_args,
        n_trials=n_trials,
    )


def _records(result) -> list[tuple]:
    return [
        (t.spec, t.outcome, repr(t.value), repr(t.rel_error), t.cycles)
        for t in result.trials
    ]


def _lookups(campaign) -> list[tuple[int, int]]:
    """``(hits, misses)`` of two golden lookups in a row."""
    counts = []
    for _ in range(2):
        GOLDEN_CACHE.clear()
        run_golden(campaign)
        counts.append((GOLDEN_CACHE.stats.hits, GOLDEN_CACHE.stats.misses))
    return counts


def _start_accumulator_at_3(module) -> None:
    """fact's accumulator starts at 1: make it start at 3, in place."""
    phi = next(
        instr for block in module.function("fact").blocks
        for instr in block.phis
        if any(isinstance(op, Constant) and op.value == 1
               for op in instr.operands)
    )
    position = next(
        i for i, op in enumerate(phi.operands)
        if isinstance(op, Constant) and op.value == 1
    )
    phi.operands[position] = Constant(phi.type, 3)


def test_one_campaign_compiles_every_block_once():
    module = build_program("isort")
    run_campaign(_campaign(module, "isort"), seed=3)
    code = module_code(module, CORTEX_A53)
    compiled = {block: (entry, entry.batched, entry.stepped)
                for block, entry in code.items()}
    assert compiled
    run_campaign(_campaign(module, "isort"), seed=4)
    assert module_code(module, CORTEX_A53) is code
    for block, (entry, batched, stepped) in compiled.items():
        assert code[block] is entry
        assert entry.batched is batched
        assert stepped is None or entry.stepped is stepped


def test_identical_clone_compiles_its_own_blocks_and_shortcuts_hangs(
    monkeypatch,
):
    original = build_program("dot")
    run_campaign(_campaign(original, "dot", n_trials=300), seed=17)
    clone = clone_module(original)
    assert print_module(clone) == print_module(original)

    proofs = []
    spins = CountedLoop.spins

    def recording(self, env, passes):
        proofs.append(spins(self, env, passes))
        return proofs[-1]

    monkeypatch.setattr(CountedLoop, "spins", recording)
    result = run_campaign(_campaign(clone, "dot", n_trials=300), seed=17)
    hangs = [t for t in result.trials if t.outcome is FaultOutcome.HANG]
    assert hangs
    assert sum(proofs) == len(hangs)
    clone_code = module_code(clone, CORTEX_A53)
    original_code = module_code(original, CORTEX_A53)
    assert clone_code is not original_code
    assert clone_code.keys() <= {
        block for func in clone for block in func.blocks
    }
    assert not set(clone_code.values()) & set(original_code.values())


def test_module_changed_in_place_runs_its_new_code():
    module = build_program("fact")
    args = list(PROGRAMS["fact"].default_args)
    before = run_campaign(_campaign(module, "fact"), seed=5)
    stale = dict(module_code(module, CORTEX_A53))
    assert stale

    _start_accumulator_at_3(module)
    expected = ReferenceInterpreter(module).run("fact", args)
    assert Interpreter(module).run("fact", args).value == expected.value
    after = run_campaign(_campaign(module, "fact"), seed=5)
    fresh = run_campaign(_campaign(clone_module(module), "fact"), seed=5)
    assert after.golden.value == expected.value != before.golden.value
    assert _records(after) == _records(fresh)
    code = module_code(module, CORTEX_A53)
    assert not set(code.values()) & set(stale.values())


def test_compiled_code_dies_with_its_module():
    module = build_program("isort")
    run_campaign(_campaign(module, "isort"), seed=9)
    run_golden(_campaign(module, "isort"))
    assert module_code(module, CORTEX_A53)
    ref = weakref.ref(module)
    del module
    gc.collect()
    assert ref() is None


def test_copies_of_a_module_that_ran_compile_their_own_code():
    module = build_program("dot")
    args = list(PROGRAMS["dot"].default_args)
    expected = Interpreter(module).run("dot", args)
    compiled = {code.batched for code in module_code(module, CORTEX_A53)
                .values()}
    for copied in (pickle.loads(pickle.dumps(module)), copy.deepcopy(module)):
        assert Interpreter(copied).run("dot", args) == expected
        code = module_code(copied, CORTEX_A53)
        assert code.keys() <= {
            block for func in copied for block in func.blocks
        }
        assert compiled.isdisjoint(entry.batched for entry in code.values())


def test_golden_run_dies_with_its_module():
    module = build_program("isort")
    run_golden(_campaign(module, "isort"))
    ((_key, stored),) = module_record(module).golden
    golden, ref = weakref.ref(stored), weakref.ref(module)
    del module, stored
    gc.collect()
    assert ref() is None
    assert golden() is None


def test_module_changed_in_place_runs_golden_again():
    module = build_program("fact")
    campaign = _campaign(module, "fact")
    before = run_golden(campaign)
    _start_accumulator_at_3(module)
    assert _lookups(campaign) == [(0, 1), (1, 0)]
    after = run_golden(campaign)
    expected = ReferenceInterpreter(module).run("fact", list(campaign.args))
    assert after.value == expected.value != before.value
    assert after.snapshots.result[0] == expected.value


@pytest.mark.parametrize(
    "copy_of",
    [
        lambda module: pickle.loads(pickle.dumps(module)),
        copy.deepcopy,
        clone_module,
    ],
    ids=["pickled", "deep-copied", "identical-clone"],
)
def test_copies_and_clones_of_a_module_run_golden_for_themselves(copy_of):
    module = build_program("dot")
    campaign = _campaign(module, "dot")
    expected = trials_digest(run_campaign(campaign, seed=11))
    copied = copy_of(module)
    copied_campaign = _campaign(copied, "dot")
    assert _lookups(copied_campaign) == [(0, 1), (1, 0)]
    (original,), (own,) = (module_record(module).golden,
                           module_record(copied).golden)
    assert own == original
    assert own[1].snapshots.func is copied.function("dot")
    assert trials_digest(run_campaign(copied_campaign, seed=11)) == expected
