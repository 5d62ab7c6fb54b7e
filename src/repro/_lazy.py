"""Re-exports that a package ``__init__`` resolves on first access.

A package ``__init__`` that imported every submodule it re-exports would
make each ``python -m repro`` request compile and run all of them,
whatever the verb needs.  Instead the package lists its re-exports and
installs the module ``__getattr__`` (PEP 562) made here::

    _EXPORTS = {".cache": ("BuildCache",), ".index": ("ShardedIndex",)}
    __all__ = export_names(_EXPORTS)
    __getattr__ = lazy_exports(__name__, _EXPORTS)

``from repro.buildcache import BuildCache`` then imports
``repro.buildcache.cache`` and nothing else.  A resolved name is stored
on the package, so later lookups are plain attribute reads.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence

__all__ = ["export_names", "lazy_exports"]


def export_names(exports: Dict[str, Sequence[str]]) -> List[str]:
    """Every re-exported name, in declaration order (the ``__all__``)."""
    return [name for names in exports.values() for name in names]


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Callable[[str], object]:
    """A module ``__getattr__`` for ``package``.

    ``exports`` maps a relative submodule name (``".cache"``) to the
    names the package re-exports from it.  Any other name raises
    ``AttributeError``, so ``from package import submodule`` still
    imports the submodule.
    """
    source = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = source.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
