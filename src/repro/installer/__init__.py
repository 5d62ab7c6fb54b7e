"""Installer subsystem: simulated builds, the install database, and the
install/extract/rewire pipeline."""

from .._lazy import export_names, lazy_exports

#: re-exports by submodule, imported on first access (see :mod:`repro._lazy`)
_EXPORTS = {
    ".builder": ("Builder", "BuildError", "prefix_name"),
    ".database": ("Database", "InstallRecord", "DatabaseError"),
    ".installer": ("Installer", "InstallReport", "InstallError"),
}

__all__ = export_names(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
