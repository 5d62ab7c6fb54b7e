"""Package repositories: the paper's toy examples and the RADIUSS stack."""

from .._lazy import export_names, lazy_exports

#: re-exports by submodule, imported on first access (see :mod:`repro._lazy`)
_EXPORTS = {
    ".mock": ("make_mock_repo",),
    ".radiuss": (
        "make_radiuss_repo",
        "add_mpiabi_replicas",
        "RADIUSS_ROOTS",
        "MPI_DEPENDENT_ROOTS",
        "NON_MPI_ROOTS",
    ),
}

__all__ = export_names(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
