"""CFG / dominator / SCC / use-def analysis tests."""

from repro.ir.cfg import (
    back_edges, predecessors, reachable_blocks, reverse_postorder, successors,
)
from repro.ir.builder import IRBuilder
from repro.ir.dominators import DominatorTree
from repro.ir.scc import (
    condensation, is_loop_component, strongly_connected_components,
)
from repro.ir.usedef import UseDefInfo, backward_slice, slice_fraction
from repro.workloads.irprograms import build_program


class TestCfg:
    def test_successors_of_branch(self, abs_diff_module):
        func = abs_diff_module.function("abs_diff")
        succs = {b.name for b in successors(func.entry)}
        assert succs == {"lt", "ge"}

    def test_ret_has_no_successors(self, abs_diff_module):
        func = abs_diff_module.function("abs_diff")
        assert successors(func.block("lt")) == []

    def test_predecessors(self, counted_loop_module):
        func = counted_loop_module.function("triangle")
        preds = {b.name for b in predecessors(func, func.block("loop"))}
        assert preds == {"entry", "loop"}

    def test_reverse_postorder_starts_at_entry(self, counted_loop_module):
        func = counted_loop_module.function("triangle")
        order = reverse_postorder(func)
        assert order[0].name == "entry"
        names = [b.name for b in order]
        assert names.index("loop") < names.index("done")

    def test_reachable(self, counted_loop_module):
        func = counted_loop_module.function("triangle")
        assert reachable_blocks(func) == {"entry", "loop", "done"}

    def test_back_edges_identify_loop(self, counted_loop_module):
        func = counted_loop_module.function("triangle")
        edges = [(a.name, b.name) for a, b in back_edges(func)]
        assert edges == [("loop", "loop")]

    def test_back_edges_skip_unreachable_blocks(self, counted_loop_module):
        # Dominance is undefined off the entry's reach, so a dead block
        # jumping into the loop adds no back edge instead of raising.
        func = counted_loop_module.function("triangle")
        b = IRBuilder(func)
        b.set_block(func.add_block("dead"))
        b.jmp(func.block("loop"))
        edges = [(a.name, b.name) for a, b in back_edges(func)]
        assert edges == [("loop", "loop")]


class TestDominators:
    def test_entry_dominates_all(self, counted_loop_module):
        func = counted_loop_module.function("triangle")
        tree = DominatorTree(func)
        for block in func.blocks:
            assert tree.dominates(func.entry, block)

    def test_branch_arms_do_not_dominate_each_other(self, abs_diff_module):
        func = abs_diff_module.function("abs_diff")
        tree = DominatorTree(func)
        lt, ge = func.block("lt"), func.block("ge")
        assert not tree.dominates(lt, ge)
        assert not tree.dominates(ge, lt)

    def test_idom_chain(self, counted_loop_module):
        func = counted_loop_module.function("triangle")
        tree = DominatorTree(func)
        done = func.block("done")
        assert tree.immediate_dominator(done) is func.entry
        doms = [b.name for b in tree.dominators_of(done)]
        assert doms == ["done", "entry"]

    def test_strict_dominance_excludes_self(self, abs_diff_module):
        func = abs_diff_module.function("abs_diff")
        tree = DominatorTree(func)
        assert not tree.strictly_dominates(func.entry, func.entry)


class TestScc:
    def test_loop_is_its_own_component(self, counted_loop_module):
        func = counted_loop_module.function("triangle")
        comps = strongly_connected_components(func)
        by_name = {tuple(b.name for b in c) for c in comps}
        assert ("loop",) in by_name
        loop_comp = next(c for c in comps if c[0].name == "loop")
        assert is_loop_component(func, loop_comp)

    def test_straight_line_blocks_not_loops(self, abs_diff_module):
        func = abs_diff_module.function("abs_diff")
        for comp in strongly_connected_components(func):
            assert not is_loop_component(func, comp)

    def test_condensation_membership(self, counted_loop_module):
        func = counted_loop_module.function("triangle")
        graph, membership = condensation(func)
        assert set(membership) == {"entry", "loop", "done"}
        assert membership["entry"] != membership["loop"]

    def test_multiblock_loop_detected(self):
        module = build_program("collatz")
        func = module.function("collatz")
        comps = strongly_connected_components(func)
        sizes = sorted(len(c) for c in comps)
        assert sizes[-1] >= 4  # loop, odd, even, latch form one SCC


class TestUseDef:
    def test_users(self, counted_loop_module):
        func = counted_loop_module.function("triangle")
        info = UseDefInfo(func)
        i_phi = next(p for p in func.block("loop").phis if p.name == "i")
        user_ops = {u.opcode.value for u in info.users(i_phi)}
        assert "add" in user_ops

    def test_backward_slice_of_branch_condition(self, counted_loop_module):
        func = counted_loop_module.function("triangle")
        loop = func.block("loop")
        cond = loop.terminator.operands[0]
        sliced = backward_slice([cond])
        names = {i.name for i in sliced}
        assert cond.name in names
        assert "i" in names          # the loop counter feeds the condition
        assert "acc" not in names    # the accumulator does not

    def test_slice_fraction_below_one(self, counted_loop_module):
        func = counted_loop_module.function("triangle")
        conds = [b.terminator.operands[0] for b in func.blocks
                 if b.terminator.opcode.value == "br"]
        fraction = slice_fraction(func, conds)
        assert 0 < fraction < 1

    def test_dead_value_detection(self, abs_diff_module):
        from repro.ir.builder import IRBuilder
        func = abs_diff_module.function("abs_diff")
        b = IRBuilder(func)
        b.set_block(func.block("entry"))
        # Insert a dead add before the terminator by hand.
        from repro.ir.instructions import Instruction, Opcode
        from repro.ir.types import INT64
        dead = Instruction(Opcode.ADD, INT64,
                           [func.args[0], func.args[1]], name="dead")
        func.block("entry").insert(0, dead)
        info = UseDefInfo(func)
        assert info.is_dead(dead)
