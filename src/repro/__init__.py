"""repro — a reproduction of "Bridging the Gap Between Binary and Source
Based Package Management in Spack" (SC 2025).

Public API tour::

    from repro import (
        Spec, parse, Repository, Package,            # spec + DSL layers
        version, variant, depends_on, provides,      # directives
        can_splice,                                  # the paper's addition
        Concretizer,                                 # ASP-backed resolver
        BuildCache, Installer, Loader,               # binary substrate
    )

Subpackages:

* :mod:`repro.spec` — versions, variants, the Spec DAG, parser
* :mod:`repro.asp` — a from-scratch ASP engine (grounder + CDCL +
  stable models + optimization), the clingo stand-in
* :mod:`repro.package` — the packaging DSL and repositories
* :mod:`repro.concretize` — the concretizer with reuse and splicing
* :mod:`repro.buildcache` — binary caches and synthetic generators
* :mod:`repro.binary` — mock-ELF, ABI model, relocation, rewiring, loader
* :mod:`repro.installer` — simulated builds, install DB, rewire installs
* :mod:`repro.repos` — the paper's mock packages and the RADIUSS stack
* :mod:`repro.bench` — the benchmark harness for Figures 5–7
* :mod:`repro.obs` — structured tracing (spans), metrics, and the
  Chrome-trace/phase-table exporters every layer reports through
"""

from ._lazy import export_names, lazy_exports

__version__ = "1.0.0"

#: re-exports by submodule, imported on first access (see :mod:`repro._lazy`)
_EXPORTS = {
    ".spec": (
        "Spec",
        "Version",
        "VersionList",
        "VariantMap",
        "parse",
        "parse_one",
        "tree",
        "SpecError",
        "UnsatisfiableSpecError",
    ),
    ".package": (
        "Package",
        "PackageBase",
        "Repository",
        "version",
        "variant",
        "depends_on",
        "provides",
        "conflicts",
        "requires",
        "can_splice",
    ),
    ".concretize": ("Concretizer", "ConcretizationResult", "UnsatisfiableError"),
    ".buildcache": ("BuildCache", "greedy_concretize", "external_spec"),
    ".installer": ("Installer", "Database"),
    ".binary": ("Loader", "MockBinary", "check_abi_compatibility"),
}

__all__ = export_names(_EXPORTS) + ["__version__"]
__getattr__ = lazy_exports(__name__, _EXPORTS)
