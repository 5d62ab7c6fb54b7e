"""The concretizer: dependency resolution with reuse and splicing."""

from .._lazy import export_names, lazy_exports

#: the environment variable that turns the ground-program cache on;
#: defined here so that a solve can test it without importing
#: :mod:`.groundcache`
ENV_CACHE_DIR = "REPRO_GROUND_CACHE_DIR"

#: re-exports by submodule, imported on first access (see :mod:`repro._lazy`)
_EXPORTS = {
    ".concretizer": (
        "Concretizer",
        "ConcretizationResult",
        "BatchConcretizationResult",
        "UnsatisfiableError",
    ),
    ".groundcache": ("GroundProgramCache", "reset_ground_caches"),
    ".encode": ("Encoder", "EncodingError"),
    ".reuse": ("ReuseEncoder", "OLD_ENCODING", "NEW_ENCODING"),
    ".cansplice": ("CanSpliceCompiler",),
    ".extract": ("ModelExtractor", "ExtractionError"),
    ".explain": ("Diagnosis", "Constraint", "explain_unsat"),
}

__all__ = export_names(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
