"""Packaging DSL: directives, the Package base class, and repositories."""

from .._lazy import export_names, lazy_exports

#: re-exports by submodule, imported on first access (see :mod:`repro._lazy`)
_EXPORTS = {
    ".directives": (
        "version",
        "variant",
        "depends_on",
        "provides",
        "conflicts",
        "requires",
        "can_splice",
        "maintainers",
        "license",
        "VersionDecl",
        "VariantDecl",
        "DependencyDecl",
        "ProvidesDecl",
        "ConflictDecl",
        "RequiresDecl",
        "CanSpliceDecl",
        "DirectiveError",
    ),
    ".package": ("PackageBase", "Package", "DirectiveMeta", "name_from_class"),
    ".repository": ("Repository", "RepositoryError"),
    ".repo_dir": ("load_repository", "dump_repository", "RepoLayoutError"),
}

__all__ = export_names(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
