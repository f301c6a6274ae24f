"""Lazy package exports: a package re-exports names it imports on use.

Each ``repro`` package ``__init__`` re-exports its submodules' public
names. Importing them eagerly would make ``import repro.serving.gateway``
load the EM engine, copy detection and the ingest HTTP client,
because importing a submodule first runs every package ``__init__`` above
it. Instead a package hands :func:`lazy_exports` a table of where each
name is defined, and the returned PEP 562 module ``__getattr__`` imports
the defining module on the first access of one of its names.
``from pkg import name``, ``from pkg import *`` (through ``__all__``)
and ``from pkg import submodule`` behave as with eager imports.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps each name ``package`` re-exports to the module that
    defines it, in ``__all__`` order. ``__getattr__`` imports that module
    on the first access of a name and binds the name on the package, so
    later accesses are plain attribute reads; any other name is an
    ``AttributeError``, which lets ``from package import submodule`` fall
    through to the import system.
    """

    def __getattr__(name: str) -> object:
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(vars(sys.modules[package]).keys() | exports.keys())

    return list(exports), __getattr__, __dir__
