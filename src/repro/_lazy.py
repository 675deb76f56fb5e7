"""Lazy package exports (PEP 562).

A package lists where each public name lives; the name's submodule is
imported on first access, so ``import repro`` runs only the modules a
caller reaches.  Every package ``__init__`` uses this one helper::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "device": ("BlockDevice", "DEFAULT_BLOCK_SIZE"),
        "runs": ("RunStore",),
    })

A resolved name is cached in the package namespace, so later accesses
are plain attribute lookups.
"""

from __future__ import annotations

import sys
from importlib import import_module
from types import ModuleType


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """Make ``package`` export ``exports`` lazily.

    ``exports`` maps a submodule (relative to ``package``) to the public
    names it defines.  Returns the package's ``__getattr__``,
    ``__dir__`` and ``__all__``.
    """
    home = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    class LazyPackage(ModuleType):
        # Importing a submodule binds it on its package under its own name
        # (``repro.core.nexsort``); an export of that name keeps the
        # binding, as an eager ``from .nexsort import nexsort`` would.
        def __setattr__(self, name, value):
            if name in home and isinstance(value, ModuleType):
                return
            super().__setattr__(name, value)

    sys.modules[package].__class__ = LazyPackage

    def __getattr__(name: str):
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(f".{module}", package), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__, sorted(home)
