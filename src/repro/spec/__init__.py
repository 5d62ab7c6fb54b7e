"""Spec subsystem: versions, variants, the Spec DAG, parser, and formatting."""

from .version import (
    Version,
    VersionRange,
    VersionList,
    VersionError,
    ver,
    any_version,
)
from .variant import Variant, VariantMap, VariantError
from .spec import (
    Spec,
    DependencySpec,
    SpecError,
    UnsatisfiableSpecError,
    DEPTYPE_BUILD,
    DEPTYPE_LINK_RUN,
    ALL_DEPTYPES,
)
from .parser import SpecParser, SpecParseError, parse, parse_one
from .format import format_spec, format_node, tree
from .._lazy import lazy_exports

#: only ``repro diff`` compares specs: its module loads on first access
_LAZY_EXPORTS = {".diff": ("SpecDiff", "NodeChange", "diff_specs")}
__getattr__ = lazy_exports(__name__, _LAZY_EXPORTS)

__all__ = [
    "Version",
    "VersionRange",
    "VersionList",
    "VersionError",
    "ver",
    "any_version",
    "Variant",
    "VariantMap",
    "VariantError",
    "Spec",
    "DependencySpec",
    "SpecError",
    "UnsatisfiableSpecError",
    "DEPTYPE_BUILD",
    "DEPTYPE_LINK_RUN",
    "ALL_DEPTYPES",
    "SpecParser",
    "SpecParseError",
    "parse",
    "parse_one",
    "format_spec",
    "format_node",
    "tree",
    "SpecDiff",
    "NodeChange",
    "diff_specs",
]
