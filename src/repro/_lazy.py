"""Lazy package exports (PEP 562).

A package maps each exported name to the submodule defining it and
binds the module-level ``__getattr__`` and ``__dir__`` built here::

    _EXPORTS = {"pack": "packing", "Platform": "platform"}
    __all__ = list(_EXPORTS)
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

See :mod:`repro` for what that buys and for the rule on an exported
name that equals its own submodule's.
"""

from __future__ import annotations

import sys
from importlib import import_module
from importlib.util import find_spec
from types import ModuleType
from typing import Any, Callable, List, Mapping, Tuple

__all__ = ["lazy_exports"]


class _ShadowingPackage(ModuleType):
    """A package exporting a function under its own submodule's name."""

    def __setattr__(self, name: str, value: Any) -> None:
        # The import system binds each submodule it loads on its
        # package; the exported function keeps the name.
        if isinstance(value, ModuleType) and name in self.__all__:
            value = getattr(value, name)
        super().__setattr__(name, value)


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of *package*, which exports
    each name of *exports* from the submodule (relative to *package*)
    it maps to, importing that submodule on the name's first access.
    Any other name that is a submodule of *package* is imported and
    returned."""
    module = sys.modules[package]
    if any(name == submodule for name, submodule in exports.items()):
        module.__class__ = _ShadowingPackage

    def __getattr__(name: str) -> Any:
        submodule = exports.get(name)
        if submodule is not None:
            value = getattr(import_module(f"{package}.{submodule}"), name)
            setattr(module, name, value)
            return value
        # A submodule not imported yet resolves too, so that
        # ``import repro; repro.engine.analyze(...)`` still works.
        if not name.startswith("__") and find_spec(f"{package}.{name}"):
            return import_module(f"{package}.{name}")
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted({*vars(module), *module.__all__})

    return __getattr__, __dir__
