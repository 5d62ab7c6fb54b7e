"""Mock binary substrate: ELF-like containers, ABI model, relocation,
rewiring, and a dynamic-loader simulation."""

from .._lazy import export_names, lazy_exports

#: re-exports by submodule, imported on first access (see :mod:`repro._lazy`)
_EXPORTS = {
    ".mockelf": ("MockBinary", "BinaryFormatError", "MAGIC"),
    ".abi": ("AbiReport", "check_abi_compatibility", "abi_compatible"),
    ".relocate": ("RelocationResult", "relocate_binary", "relocate_text", "pad_prefix"),
    ".rewire": ("RewirePlan", "RewireError", "plan_rewire", "rewire_binary"),
    ".loader": ("Loader", "LoadResult", "LoadError"),
}

__all__ = export_names(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
