"""Package base class and the directive-collecting metaclass.

A package is a Python class whose body consists of directive calls
(Figure 1).  :class:`DirectiveMeta` drains the module-level accumulator
in :mod:`.directives` when the class object is created, attaching typed
declaration lists (``versions``, ``variants``, ``dependencies``, ...)
to the class.  Subclasses inherit and extend their parents'
declarations.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from ..spec import Spec, Version
from .directives import (
    CanSpliceDecl,
    ConflictDecl,
    DependencyDecl,
    DirectiveError,
    ProvidesDecl,
    RequiresDecl,
    VariantDecl,
    VersionDecl,
    _drain,
)

__all__ = ["PackageBase", "Package", "DirectiveMeta", "name_from_class"]


def name_from_class(class_name: str) -> str:
    """CamelCase class name → kebab-case package name (Spack convention):
    ``PyShroud`` → ``py-shroud``, ``Hdf5`` → ``hdf5``."""
    parts = re.findall(r"[A-Z][a-z0-9]*|[0-9]+", class_name)
    return "-".join(p.lower() for p in parts)


class DirectiveMeta(type):
    """Collects directive declarations issued in the class body."""

    def __new__(mcs, name, bases, attrs):
        cls = super().__new__(mcs, name, bases, attrs)
        collected = _drain()

        def inherited(attr: str) -> list:
            merged: List = []
            for base in bases:
                merged.extend(getattr(base, attr, ()))
            return merged

        cls.version_decls = inherited("version_decls") + [
            d for d in collected if isinstance(d, VersionDecl)
        ]
        cls.variant_decls = inherited("variant_decls") + [
            d for d in collected if isinstance(d, VariantDecl)
        ]
        cls.dependency_decls = inherited("dependency_decls") + [
            d for d in collected if isinstance(d, DependencyDecl)
        ]
        cls.provides_decls = inherited("provides_decls") + [
            d for d in collected if isinstance(d, ProvidesDecl)
        ]
        cls.conflict_decls = inherited("conflict_decls") + [
            d for d in collected if isinstance(d, ConflictDecl)
        ]
        cls.requires_decls = inherited("requires_decls") + [
            d for d in collected if isinstance(d, RequiresDecl)
        ]
        cls.can_splice_decls = inherited("can_splice_decls") + [
            d for d in collected if isinstance(d, CanSpliceDecl)
        ]
        if "name" not in attrs and name not in ("PackageBase", "Package"):
            cls.name = name_from_class(name)
        return cls


class PackageBase(metaclass=DirectiveMeta):
    """Base class of all packages.

    Class attributes set by the metaclass: ``version_decls``,
    ``variant_decls``, ``dependency_decls``, ``provides_decls``,
    ``conflict_decls``, ``requires_decls``, ``can_splice_decls``.

    Set ``buildable = False`` for packages that only exist as external
    binaries (e.g. vendor MPI implementations such as cray-mpich).
    """

    #: package name (kebab-case); derived from the class name by default
    name: str = ""
    #: can this package be built from source?
    buildable: bool = True
    #: simulated build artifacts: exported symbols per library
    provides_symbols: Tuple[str, ...] = ()
    #: simulated exported type layouts: {type_name: layout descriptor}
    type_layouts: Dict[str, str] = {}
    #: simulated build duration (seconds) for installer accounting
    build_time: float = 1.0

    # ------------------------------------------------------------------
    # declaration queries (used by the concretizer encoder)
    # ------------------------------------------------------------------
    @classmethod
    def declared_versions(cls) -> List[Version]:
        """Declared versions, newest first."""
        return sorted((d.version for d in cls.version_decls), reverse=True)

    @classmethod
    def preferred_version(cls) -> Version:
        preferred = [d.version for d in cls.version_decls if d.preferred]
        if preferred:
            return max(preferred)
        usable = [d.version for d in cls.version_decls if not d.deprecated]
        if not usable:
            raise DirectiveError(f"package {cls.name} declares no usable versions")
        return max(usable)

    @classmethod
    def variant_names(cls) -> List[str]:
        return sorted({d.name for d in cls.variant_decls})

    @classmethod
    def variant(cls, name: str) -> VariantDecl:
        for d in cls.variant_decls:
            if d.name == name:
                return d
        raise KeyError(name)

    @classmethod
    def provided_virtuals(cls) -> List[str]:
        return sorted({d.virtual.name for d in cls.provides_decls})

    # ------------------------------------------------------------------
    # simulated build description (consumed by repro.installer.builder)
    # ------------------------------------------------------------------
    @classmethod
    def libraries(cls) -> List[str]:
        """Names of the shared libraries a build of this package yields."""
        return [f"lib{cls.name}.so"]

    @classmethod
    def binaries(cls) -> List[str]:
        """Names of executables a build of this package yields."""
        return []

    @classmethod
    def exported_symbols(cls, spec: Spec) -> List[str]:
        """Mangled symbol names this configuration exports (ABI model).

        Default: one symbol per declared symbol plus a versioned marker.
        Packages can override to model symbol changes across versions.
        """
        base = list(cls.provides_symbols) or [f"{cls.name}_init", f"{cls.name}_run"]
        return base

    @classmethod
    def exported_type_layouts(cls, spec: Spec) -> Dict[str, str]:
        """Opaque-type layout descriptors (ABI model, Section 2.1)."""
        return dict(cls.type_layouts)

    def __init__(self, spec: Optional[Spec] = None):
        #: the concrete spec this instance describes, when instantiated
        self.spec = spec

    def __repr__(self):
        return f"<Package {self.name}>"


#: alias matching Spack's DSL (``class Example(Package)``)
Package = PackageBase
