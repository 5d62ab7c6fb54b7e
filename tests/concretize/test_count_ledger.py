"""The count ledger: pin the solver's work, not the clock.

``bench_results/counts.json`` holds the per-request counts of the
splice-solve slice: ``<root> ^mpiabi`` with splicing, against the public
cache population the CLI benchmark serves (``vary_configurations`` of
the RADIUSS roots, count 100, seed 42, plus the local stack built on
mpich@3.4.3 in three variant configurations), built in memory.  The test
recomputes every count and compares exactly; the counts repeat across
runs and hash seeds, so any change is a change in the work the solver
does.  A change that moves a count regenerates the file in the same
diff::

    PYTHONPATH=src python tests/concretize/test_count_ledger.py
"""

import json
from pathlib import Path

import pytest

from repro.bench.scenarios import SPLICE_TARGET_MPICH
from repro.buildcache import vary_configurations
from repro.buildcache.generate import greedy_concretize
from repro.concretize import Concretizer
from repro.repos.radiuss import RADIUSS_ROOTS, make_radiuss_repo

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


@pytest.fixture(scope="module")
def computed():
    return {row["spec"]: row for row in splice_solve_counts()}


@pytest.mark.parametrize("request_text", REQUESTS)
def test_splice_solve_counts_match_ledger(computed, request_text):
    ledger = json.loads(LEDGER.read_text())
    (pinned,) = [
        row for row in ledger["rows"]
        if (row["label"], row["spec"]) == ("splice-solve", request_text)
    ]
    assert computed[request_text] == pinned


def write_ledger():
    from repro.bench.report import provenance
    from repro.obs import SCHEMA_VERSION

    document = {
        "figure": "counts",
        "title": "count ledger: the solver's work per request",
        "obs_schema": SCHEMA_VERSION,
        "provenance": provenance(),
        "workloads": {
            "splice-solve": (
                "<root> ^mpiabi with splicing, one in-process solve each, "
                "against vary_configurations(radiuss, RADIUSS_ROOTS, count=100, "
                "seed=42, providers=mpich,mpich,openmpi,mvapich2) plus the "
                "local stack on mpich@3.4.3 in 3 variant configurations"
            ),
        },
        "rows": splice_solve_counts(),
    }
    LEDGER.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {LEDGER}")


if __name__ == "__main__":
    write_ledger()
