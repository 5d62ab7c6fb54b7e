"""The count ledger: pin the work, not the clock.

``bench_results/counts.json`` holds two slices of per-request counts.

* **splice-solve**: ``<root> ^mpiabi`` with splicing, against the public
  cache population the CLI benchmark serves (``vary_configurations`` of
  the RADIUSS roots, count 100, seed 42, plus the local stack built on
  mpich@3.4.3 in three variant configurations), built in memory.
* **install-http**: a small spliced environment (``INSTALL_ROOTS``)
  installed with ``repro env install`` from a cache of its mpich@3.4.3
  stack served read-only by an in-process ``buildcache serve``.  Each
  row pins the HTTP requests the server saw, the fetches, relocations
  and rewires, the nodes built, extracted and rewired, and the install
  database saves.  Payloads embed their build prefix, so the work
  directory is padded to ``WORK_PATH_LENGTH`` characters to pin the
  fetched bytes too.

The test recomputes every count and compares exactly; the counts repeat
across runs and hash seeds, so any change is a change in the work the
program does.  A change that moves a count regenerates the file in the
same diff::

    PYTHONPATH=src python tests/concretize/test_count_ledger.py
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest

import repro.obs as obs
from repro.bench.scenarios import SPLICE_TARGET_MPICH
from repro.binary import rewire
from repro.buildcache import BuildCache, vary_configurations
from repro.buildcache.generate import greedy_concretize
from repro.buildcache.server import start_server
from repro.cli import main
from repro.concretize import Concretizer
from repro.environment import Environment
from repro.installer import Installer
from repro.installer import installer as installer_module
from repro.installer.database import Database
from repro.obs import metrics
from repro.repos.radiuss import RADIUSS_ROOTS, make_radiuss_repo
from repro.spec import DEPTYPE_LINK_RUN

LEDGER = Path(__file__).resolve().parents[2] / "bench_results" / "counts.json"

REQUESTS = ["aluminum ^mpiabi", "hypre ^mpiabi", "sundials ^mpiabi", "xbraid ^mpiabi"]

#: ``Concretizer.solve`` stats pinned per request
COUNTS = [
    "atoms", "ground_rules", "models_seen", "finder_calls",
    "sat_decisions", "sat_conflicts", "reusable_nodes",
]

PUBLIC_PROVIDERS = [{"mpi": "mpich"}, {"mpi": "mpich"}, {"mpi": "openmpi"},
                    {"mpi": "mvapich2"}]
LOCAL_VARIATIONS = [
    {},
    {("hdf5", "cxx"): "True", ("raja", "openmp"): "False"},
    {("conduit", "hdf5"): "False", ("mfem", "zlib"): "False"},
]


def public_population(repo):
    """The public cache's specs, deduplicated by DAG hash, in cache order."""
    specs = list(vary_configurations(
        repo, RADIUSS_ROOTS, count=100, seed=42, providers=PUBLIC_PROVIDERS,
    ))
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


def splice_solve_counts():
    """One ledger row per request: the pinned counts and root DAG hash."""
    repo = make_radiuss_repo()
    concretizer = Concretizer(
        repo, reusable_specs=public_population(repo), splicing=True
    )
    rows = []
    for request in REQUESTS:
        result = concretizer.solve([request])
        row = {"label": "splice-solve", "spec": request}
        row.update((key, int(result.stats[key])) for key in COUNTS)
        row["root_dag_hash"] = result.roots[0].dag_hash()
        rows.append(row)
    return rows


#: the spliced environment of the install slice, and the roots whose
#: mpich@3.4.3 stacks make up the cache it installs from
INSTALL_ROOTS = ["hypre ^mpiabi", "xbraid ^mpiabi", "zfp"]
INSTALL_CACHE_ROOTS = ["hypre", "xbraid", "zfp"]
#: length of the install slice's work directory (see the module doc)
WORK_PATH_LENGTH = 120
SUMMARY = re.compile(r"built=(\d+) extracted=(\d+) rewired=(\d+)")


def _padded_work_dir(base: Path) -> Path:
    pad = WORK_PATH_LENGTH - len(str(base.resolve())) - 1
    assert pad > 0, f"{base} is too long for a {WORK_PATH_LENGTH}-char work dir"
    work = base.resolve() / ("w" * pad)
    work.mkdir()
    return work


def _publish_cache(repo, work: Path) -> Path:
    """Build the cache roots' stacks in a seed store and push them."""
    specs = [
        greedy_concretize(repo, root, versions={"mpich": SPLICE_TARGET_MPICH},
                          include_build_deps=False)
        for root in INSTALL_CACHE_ROOTS
    ]
    seed = Installer(work / "seed", repo)
    seed.install_all(specs)
    cache = BuildCache(work / "cache")
    pushed = set()
    for spec in specs:
        for node in spec.traverse(order="post"):
            if node.external or node.dag_hash() in pushed:
                continue
            pushed.add(node.dag_hash())
            dep_prefixes = {
                edge.spec.dag_hash(): seed.database.prefix_of(edge.spec)
                for edge in node.edges(DEPTYPE_LINK_RUN)
            }
            cache.push(node, Path(seed.database.prefix_of(node)),
                       dep_prefixes=dep_prefixes)
    cache.save_index()
    return work / "cache"


def install_http_counts():
    """The install slice's one ledger row."""
    repo = make_radiuss_repo()
    with tempfile.TemporaryDirectory() as base:
        work = _padded_work_dir(Path(base))
        cache_dir = _publish_cache(repo, work)
        env = Environment(work / "env", repo)
        for root in INSTALL_ROOTS:
            env.add(root)
        env.splicing = True
        env.concretize(reusable_specs=BuildCache(cache_dir).all_specs())
        env.write()

        server = start_server(cache_dir, read_only=True)
        obs.reset()
        out = io.StringIO()
        try:
            with mock.patch.object(
                Database, "save", autospec=True, side_effect=Database.save
            ) as saves, mock.patch.object(
                installer_module, "rewire_binary", wraps=rewire.rewire_binary
            ) as rewires, contextlib.redirect_stdout(out):
                rc = main([
                    "--repo", "radiuss", "env", "install",
                    "--env", str(work / "env"), "--store", str(work / "store"),
                    "--mirror", f"{server.url}:ro",
                ])
            requests = len(server.request_log)
        finally:
            server.shutdown()
            server.server_close()
    assert rc == 0, out.getvalue()
    built, extracted, rewired = map(int, SUMMARY.search(out.getvalue()).groups())
    return {
        "label": "install-http",
        "spec": ", ".join(INSTALL_ROOTS),
        "http_requests": requests,
        "fetches": metrics.counter("buildcache.fetches").value,
        "fetched_bytes": metrics.counter("buildcache.fetched_bytes").value,
        "relocations": metrics.counter("relocate.binaries").value,
        "rewires": rewires.call_count,
        "nodes_built": built,
        "nodes_extracted": extracted,
        "nodes_rewired": rewired,
        "db_saves": saves.call_count,
    }


def ledger_row(label, spec):
    ledger = json.loads(LEDGER.read_text())
    (pinned,) = [
        row for row in ledger["rows"] if (row["label"], row["spec"]) == (label, spec)
    ]
    return pinned


@pytest.fixture(scope="module")
def computed():
    return {row["spec"]: row for row in splice_solve_counts()}


@pytest.mark.parametrize("request_text", REQUESTS)
def test_splice_solve_counts_match_ledger(computed, request_text):
    assert computed[request_text] == ledger_row("splice-solve", request_text)


def test_install_http_counts_match_ledger():
    row = install_http_counts()
    assert row == ledger_row("install-http", row["spec"])


def write_ledger():
    from repro.bench.report import provenance
    from repro.obs import SCHEMA_VERSION

    document = {
        "figure": "counts",
        "title": "count ledger: the work per request",
        "obs_schema": SCHEMA_VERSION,
        "provenance": provenance(),
        "workloads": {
            "splice-solve": (
                "<root> ^mpiabi with splicing, one in-process solve each, "
                "against vary_configurations(radiuss, RADIUSS_ROOTS, count=100, "
                "seed=42, providers=mpich,mpich,openmpi,mvapich2) plus the "
                "local stack on mpich@3.4.3 in 3 variant configurations"
            ),
            "install-http": (
                "repro env install of the spliced environment "
                f"{INSTALL_ROOTS} from a read-only in-process buildcache "
                f"serve of the mpich@{SPLICE_TARGET_MPICH} stacks of "
                f"{INSTALL_CACHE_ROOTS}; work directory padded to "
                f"{WORK_PATH_LENGTH} characters"
            ),
        },
        "rows": splice_solve_counts() + [install_http_counts()],
    }
    LEDGER.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {LEDGER}")


if __name__ == "__main__":
    write_ledger()
