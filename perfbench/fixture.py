"""Build one workload's fixture with the code under test.

Usage::

    python perfbench/fixture.py --workload W --public-specs C --dir D

Writes into ``D``:

* ``seed/``  — the seed store: every public-cache spec built from source;
* ``cache/`` — the public buildcache: every node of ``seed/`` pushed once,
  then one ``save_index``;
* ``env/``   — (install workloads) the locked, spliced 32-root RADIUSS
  environment, concretized against ``cache/``;
* ``store/`` — (install-shared-store) the whole public stack installed
  from ``cache/``.

The public cache is the ``repro.bench.scenarios`` public configuration
with its size taken from the arguments: ``C`` ``vary_configurations`` of
the RADIUSS roots, drawn with the scenarios' fixed seed, plus the local
stack built consistently against mpich@3.4.3 in three variant
configurations.  The fixture is the same for every benchmark seed, so
every run solves and installs the same programs.  Prints one JSON line
describing the fixture.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from repro.buildcache import BuildCache, vary_configurations
from repro.buildcache.generate import greedy_concretize
from repro.environment import Environment
from repro.installer import Installer
from repro.repos.radiuss import (
    MPI_DEPENDENT_ROOTS,
    NON_MPI_ROOTS,
    RADIUSS_ROOTS,
    make_radiuss_repo,
)
from repro.bench.scenarios import SPLICE_TARGET_MPICH
from repro.spec import DEPTYPE_LINK_RUN

#: seed of the public cache's configurations (as in scenarios)
PUBLIC_SEED = 42

#: provider mix of the public cache (mpich-heavy, as in scenarios)
PUBLIC_PROVIDERS = [
    {"mpi": "mpich"},
    {"mpi": "mpich"},
    {"mpi": "openmpi"},
    {"mpi": "mvapich2"},
]

#: the local stack's variant configurations (scenarios' first three)
LOCAL_VARIATIONS = [
    {},
    {("hdf5", "cxx"): "True", ("raja", "openmp"): "False"},
    {("conduit", "hdf5"): "False", ("mfem", "zlib"): "False"},
]


def public_specs(repo, count):
    """The public cache population, deduplicated by DAG hash."""
    specs = list(
        vary_configurations(
            repo, RADIUSS_ROOTS, count=count, seed=PUBLIC_SEED,
            providers=PUBLIC_PROVIDERS,
        )
    )
    seen = {spec.dag_hash() for spec in specs}
    for variants in LOCAL_VARIATIONS:
        for root in RADIUSS_ROOTS:
            spec = greedy_concretize(
                repo, root, versions={"mpich": SPLICE_TARGET_MPICH},
                variants=variants, include_build_deps=False,
            )
            if spec.dag_hash() not in seen:
                seen.add(spec.dag_hash())
                specs.append(spec)
    return specs


def environment_roots():
    """The 32-root environment: MPI roots spliced onto ``mpiabi``."""
    return [f"{root} ^mpiabi" for root in MPI_DEPENDENT_ROOTS] + list(NON_MPI_ROOTS)


def build(workload, count, directory):
    phases = {}
    mark = time.perf_counter()

    def phase(name):
        nonlocal mark
        now = time.perf_counter()
        phases[name] = now - mark
        mark = now

    repo = make_radiuss_repo()
    specs = public_specs(repo, count)
    phase("generate_s")
    seed_store = Installer(directory / "seed", repo)
    seed_store.install_all(specs)
    phase("seed_install_s")
    cache = BuildCache(directory / "cache")
    pushed = set()
    for spec in specs:
        for node in spec.traverse(order="post"):
            if node.external or node.dag_hash() in pushed:
                continue
            pushed.add(node.dag_hash())
            dep_prefixes = {
                edge.spec.dag_hash(): seed_store.database.prefix_of(edge.spec)
                for edge in node.edges(DEPTYPE_LINK_RUN)
            }
            cache.push(
                node, Path(seed_store.database.prefix_of(node)),
                dep_prefixes=dep_prefixes,
            )
    phase("push_s")
    cache.save_index()
    phase("save_index_s")
    fixture = {
        "cache": str(directory / "cache"),
        "seed_store": str(directory / "seed"),
        "public_roots": len(specs),
        "cache_entries": len(cache),
        "mpi_roots": list(MPI_DEPENDENT_ROOTS),
        "phases": phases,
    }
    if workload == "splice-solve":
        return fixture
    env = Environment(directory / "env", repo)
    for root in environment_roots():
        env.add(root)
    env.splicing = True
    env.concretize(reusable_specs=BuildCache(directory / "cache").all_specs())
    env.write()
    phase("lock_s")
    fixture["env"] = str(directory / "env")
    if workload == "install-shared-store":
        store = Installer(directory / "store", repo, caches=[cache])
        store.install_all(cache.all_specs())
        phase("store_install_s")
        fixture["store"] = str(directory / "store")
        fixture["store_records"] = len(store.database)
    return fixture


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=["splice-solve", "install-http", "install-shared-store"],
    )
    parser.add_argument("--public-specs", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    args = parser.parse_args(argv)
    args.dir.mkdir(parents=True, exist_ok=True)
    fixture = build(args.workload, args.public_specs, args.dir.resolve())
    print(json.dumps(fixture, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
