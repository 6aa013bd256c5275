"""Dominator tree via the Cooper–Harvey–Kennedy iterative algorithm.

Dominance is needed by the IR verifier (SSA defs must dominate uses) and by
the loop/back-edge detection used for SCC-level control-flow integrity.
"""

from __future__ import annotations

from repro.errors import IRError
from repro.ir.block import BasicBlock
from repro.ir.cfg import predecessors, reachable_blocks, reverse_postorder
from repro.ir.function import Function


class DominatorTree:
    """Immediate-dominator map for the reachable CFG of a function."""

    def __init__(self, func: Function) -> None:
        self.func = func
        self._reachable = reachable_blocks(func)
        order = [b for b in reverse_postorder(func) if b.name in self._reachable]
        self._rpo_index = {b.name: i for i, b in enumerate(order)}
        self._idom: dict[str, str] = {}
        self._compute(order)

    def _compute(self, order: list[BasicBlock]) -> None:
        entry = self.func.entry
        idom: dict[str, str | None] = {b.name: None for b in order}
        idom[entry.name] = entry.name

        preds_of = {
            b.name: [
                p for p in predecessors(self.func, b) if p.name in self._reachable
            ]
            for b in order
        }

        changed = True
        while changed:
            changed = False
            for block in order:
                if block is entry:
                    continue
                preds = [p for p in preds_of[block.name] if idom[p.name] is not None]
                if not preds:
                    continue
                new_idom = preds[0].name
                for pred in preds[1:]:
                    new_idom = self._intersect(new_idom, pred.name, idom)
                if idom[block.name] != new_idom:
                    idom[block.name] = new_idom
                    changed = True

        self._idom = {k: v for k, v in idom.items() if v is not None}

    def _intersect(
        self, a: str, b: str, idom: dict[str, str | None]
    ) -> str:
        index = self._rpo_index
        while a != b:
            while index[a] > index[b]:
                parent = idom[a]
                assert parent is not None
                a = parent
            while index[b] > index[a]:
                parent = idom[b]
                assert parent is not None
                b = parent
        return a

    # -- queries --------------------------------------------------------------

    def immediate_dominator(self, block: BasicBlock) -> BasicBlock | None:
        """The immediate dominator of ``block`` (None for entry/unreachable)."""
        name = self._idom.get(block.name)
        if name is None or name == block.name:
            return None
        return self.func.block(name)

    def is_reachable(self, block: BasicBlock) -> bool:
        """Whether ``block`` is reachable from the entry."""
        return block.name in self._reachable

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True if every path from entry to ``b`` passes through ``a``."""
        if b.name not in self._idom:
            raise IRError(f"block ^{b.name} is unreachable")
        current: str | None = b.name
        while current is not None:
            if current == a.name:
                return True
            parent = self._idom.get(current)
            if parent == current:
                return False
            current = parent
        return False

    def strictly_dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        return a is not b and self.dominates(a, b)

    def dominators_of(self, block: BasicBlock) -> list[BasicBlock]:
        """All blocks dominating ``block``, from itself up to the entry."""
        result = []
        current: str | None = block.name
        while current is not None:
            result.append(self.func.block(current))
            parent = self._idom.get(current)
            if parent == current:
                break
            current = parent
        return result
