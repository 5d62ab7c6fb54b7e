#!/usr/bin/env python3
"""Why ABI modeling matters: the MPICH / Open MPI incompatibility.

Section 2.1: MPICH implements ``MPI_Comm`` as a 32-bit integer, Open MPI
as an incomplete struct pointer.  Binaries compiled against one cannot
safely use the other.  This example shows all three safety layers:

1. the **solver** never synthesizes an openmpi-for-mpich splice, because
   openmpi declares no ``can_splice("mpich...")``;
2. the **installer** refuses to rewire a hand-forced unsafe splice
   (symbol/layout check at rewire time);
3. the **loader** catches the layout conflict if an unsafe mix ever
   reaches disk.

Run:  python examples/abi_safety.py
"""

import shutil
import tempfile
from pathlib import Path

from repro import BuildCache, Concretizer, Installer, Loader
from repro.binary import MockBinary, check_abi_compatibility
from repro.installer import InstallError
from repro.repos.radiuss import make_radiuss_repo


def main() -> None:
    repo = make_radiuss_repo()
    workspace = Path(tempfile.mkdtemp(prefix="abi-safety-"))
    try:
        # a cached hypre built against mpich@3.4.3
        base = Concretizer(repo)
        built = base.solve(["hypre ^mpich@3.4.3"]).roots[0]
        store = Installer(workspace / "store", repo)
        store.install(built)
        cache = BuildCache(workspace / "cache")
        store.push_to_cache(cache, built)

        # ---- layer 1: the solver ----------------------------------------
        # `hypre ^openmpi` with splicing enabled: no can_splice rule lets
        # openmpi replace mpich, so the solver rebuilds instead.
        solver = Concretizer(repo, reusable_specs=cache.all_specs(), splicing=True)
        result = solver.solve(["hypre ^openmpi"])
        print("solver: `hypre ^openmpi` with splicing on →",
              f"built={sorted(s.name for s in result.built)}, "
              f"spliced={len(result.spliced)}")
        assert "hypre" in {s.name for s in result.built}, (
            "no unsafe splice: hypre is rebuilt against openmpi"
        )
        # ...while `hypre ^mpiabi` (MPICH ABI, declared) splices fine:
        result = solver.solve(["hypre ^mpiabi"])
        assert {s.name for s in result.spliced} == {"hypre"}
        print("solver: `hypre ^mpiabi` →  splices (declared ABI-compatible)")

        # ---- layer 2: the rewire ABI check -------------------------------
        # force the unsafe splice by hand and try to install it
        openmpi = base.solve(["openmpi"]).roots[0]
        unsafe = built.splice(openmpi, transitive=True, replace="mpich")
        target = Installer(workspace / "unsafe", repo, caches=[cache])
        # openmpi itself has to exist locally first
        target.install(unsafe["openmpi"])
        try:
            target.install(unsafe)
            raise AssertionError("unsafe rewire must be refused")
        except InstallError as e:
            print(f"\ninstaller: {e}")

        # ---- layer 3: the loader -----------------------------------------
        # if an unsafe mix reaches disk anyway, loading catches it
        lib = workspace / "mixed" / "lib"
        lib.mkdir(parents=True)
        MockBinary(
            soname="libapp.so",
            needed=["libopenmpi.so"],
            rpaths=[str(lib)],
            undefined_symbols=["MPI_Init"],
            type_layouts={"MPI_Comm": "int32"},  # compiled against MPICH
        ).write(lib / "libapp.so")
        MockBinary(
            soname="libopenmpi.so",
            defined_symbols=["MPI_Init"],
            type_layouts={"MPI_Comm": "ptr-struct"},
        ).write(lib / "libopenmpi.so")
        outcome = Loader().load(str(lib / "libapp.so"))
        print(f"\nloader: {outcome.explain()}")
        assert not outcome.ok and outcome.layout_conflicts

        # ---- the ABI report, directly -------------------------------------
        mpich_bin = MockBinary(
            soname="libmpich.so",
            defined_symbols=["MPI_Init", "MPI_Send"],
            type_layouts={"MPI_Comm": "int32"},
        )
        openmpi_bin = MockBinary(
            soname="libopenmpi.so",
            defined_symbols=["MPI_Init", "MPI_Send"],
            type_layouts={"MPI_Comm": "ptr-struct"},
        )
        report = check_abi_compatibility(openmpi_bin, mpich_bin)
        print(f"\ndirect check: {report.explain()}")
        assert not report.compatible
    finally:
        shutil.rmtree(workspace, ignore_errors=True)


if __name__ == "__main__":
    main()
