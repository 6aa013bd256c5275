"""IR functions: named collections of basic blocks with typed arguments."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.errors import IRError
from repro.ir.block import BasicBlock
from repro.ir.instructions import Instruction
from repro.ir.types import Type
from repro.ir.values import Argument

if TYPE_CHECKING:
    from repro.ir.module import Module


class Function:
    """A function with SSA body.

    Attributes:
        name: global symbol name.
        args: formal parameters in order.
        return_type: the type ``ret`` instructions must produce.
        blocks: basic blocks; the first one is the entry block.
    """

    def __init__(
        self,
        name: str,
        arg_types: list[tuple[str, Type]],
        return_type: Type,
    ) -> None:
        self.name = name
        self.args: list[Argument] = [
            Argument(t, n, i) for i, (n, t) in enumerate(arg_types)
        ]
        self.return_type = return_type
        self.blocks: list[BasicBlock] = []
        self.parent: Module | None = None
        self._name_counter = 0

    # -- block management ---------------------------------------------------

    def add_block(self, name: str | None = None) -> BasicBlock:
        """Create and append a new basic block with a unique label."""
        if name is None:
            name = f"bb{len(self.blocks)}"
        if any(b.name == name for b in self.blocks):
            raise IRError(f"duplicate block name ^{name} in @{self.name}")
        block = BasicBlock(name)
        block.parent = self
        self.blocks.append(block)
        return block

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise IRError(f"function @{self.name} has no blocks")
        return self.blocks[0]

    def block(self, name: str) -> BasicBlock:
        for b in self.blocks:
            if b.name == name:
                return b
        raise IRError(f"no block ^{name} in @{self.name}")

    # -- value naming --------------------------------------------------------

    def fresh_name(self, hint: str = "v") -> str:
        """Return a value name unused so far in this function."""
        self._name_counter += 1
        return f"{hint}{self._name_counter}"

    # -- iteration -----------------------------------------------------------

    def instructions(self) -> Iterator[Instruction]:
        """All instructions in block order."""
        for block in self.blocks:
            yield from block.instructions

    def value_types(self) -> dict[str, Type]:
        """Declared type of every named value (arguments + instruction results)."""
        types = {arg.name: arg.type for arg in self.args}
        for instr in self.instructions():
            if instr.defines_value:
                types[instr.name] = instr.type
        return types

    def __len__(self) -> int:
        """Total instruction count."""
        return sum(len(b) for b in self.blocks)

    def ref(self) -> str:
        return f"@{self.name}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Function @{self.name} ({len(self.blocks)} blocks)>"
