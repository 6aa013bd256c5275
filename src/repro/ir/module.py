"""IR modules: the compilation unit holding a set of functions."""

from __future__ import annotations

from typing import Iterator

from repro.errors import IRError
from repro.ir.function import Function


class Module:
    """A named collection of functions (the IR compilation unit)."""

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self._functions: dict[str, Function] = {}
        #: What every run and plan over this module share: its compiled
        #: code and its masking report, checked against its printed IR
        #: and kept here so that they die with the module (see
        #: :func:`repro.ir.interp.module_record`).
        self._code: "ModuleRecord | None" = None  # noqa: F821

    def __getstate__(self) -> dict:
        # A pickled or deep-copied module compiles its own code and
        # analyses itself again: compiled code holds this module's blocks,
        # and a report its functions.
        return {**self.__dict__, "_code": None}

    def add_function(self, func: Function) -> Function:
        if func.name in self._functions:
            raise IRError(f"duplicate function @{func.name} in module {self.name}")
        func.parent = self
        self._functions[func.name] = func
        return func

    def function(self, name: str) -> Function:
        try:
            return self._functions[name]
        except KeyError:
            raise IRError(f"no function @{name} in module {self.name}") from None

    def has_function(self, name: str) -> bool:
        return name in self._functions

    def remove_function(self, name: str) -> None:
        if name not in self._functions:
            raise IRError(f"no function @{name} in module {self.name}")
        del self._functions[name]

    @property
    def functions(self) -> list[Function]:
        return list(self._functions.values())

    def __iter__(self) -> Iterator[Function]:
        return iter(self._functions.values())

    def __len__(self) -> int:
        return len(self._functions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Module {self.name} ({len(self)} functions)>"
