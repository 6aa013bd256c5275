"""Control-flow graph queries over IR functions.

The tunable-DMR pass walks the CFG to find the branch-governing values
(sect. 4.1 of the paper); the risk-analysis pass uses reverse postorder for
its dataflow propagation.
"""

from __future__ import annotations

import networkx as nx

from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Opcode


def successors(block: BasicBlock) -> list[BasicBlock]:
    """Successor blocks of ``block`` (empty for ``ret``)."""
    term = block.terminator
    if term.opcode is Opcode.RET:
        return []
    return list(term.block_targets)


def predecessors(func: Function, block: BasicBlock) -> list[BasicBlock]:
    """Predecessor blocks of ``block`` within ``func``."""
    return [b for b in func.blocks if block in successors(b)]


def cfg_graph(func: Function) -> "nx.DiGraph":
    """The function's CFG as a :class:`networkx.DiGraph` over block names."""
    graph = nx.DiGraph()
    for block in func.blocks:
        graph.add_node(block.name)
    for block in func.blocks:
        for succ in successors(block):
            graph.add_edge(block.name, succ.name)
    return graph


def reverse_postorder(func: Function) -> list[BasicBlock]:
    """Blocks in reverse postorder from the entry (forward dataflow order).

    Unreachable blocks are appended at the end in declaration order so that
    analyses still see every block.
    """
    seen: set[str] = set()
    postorder: list[BasicBlock] = []

    def visit(block: BasicBlock) -> None:
        # Iterative DFS to avoid recursion limits on long CFG chains.
        stack: list[tuple[BasicBlock, int]] = [(block, 0)]
        seen.add(block.name)
        while stack:
            current, idx = stack.pop()
            succs = successors(current)
            if idx < len(succs):
                stack.append((current, idx + 1))
                nxt = succs[idx]
                if nxt.name not in seen:
                    seen.add(nxt.name)
                    stack.append((nxt, 0))
            else:
                postorder.append(current)

    visit(func.entry)
    order = list(reversed(postorder))
    order.extend(b for b in func.blocks if b.name not in seen)
    return order


def reachable_blocks(func: Function) -> set[str]:
    """Names of blocks reachable from the entry."""
    graph = cfg_graph(func)
    return {func.entry.name} | set(
        nx.descendants(graph, func.entry.name)
    )


def back_edges(func: Function) -> list[tuple[BasicBlock, BasicBlock]]:
    """CFG edges (src, dst) where dst dominates src — i.e. loop back edges."""
    from repro.ir.dominators import DominatorTree

    domtree = DominatorTree(func)
    edges = []
    for block in func.blocks:
        if not domtree.is_reachable(block):
            continue  # dominance is defined on reachable blocks only
        for succ in successors(block):
            if domtree.dominates(succ, block):
                edges.append((block, succ))
    return edges
