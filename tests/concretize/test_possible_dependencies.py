"""Each solve encodes only the request's possible dependencies, exactly.

Property: a solve pruned to the closure gives the same root DAG hash,
build list and splice list (or the same failure) as the same solve with
the closure widened to every package, virtual and cached name.
"""

from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.concretize.concretizer as concretizer_module
from repro.bench.scenarios import SPLICE_TARGET_MPICH
from repro.buildcache import vary_configurations
from repro.buildcache.generate import greedy_concretize
from repro.concretize import Concretizer, UnsatisfiableError
from repro.concretize.possible import possible_dependencies
from repro.repos.mock import make_mock_repo
from repro.repos.radiuss import (
    MPI_DEPENDENT_ROOTS, RADIUSS_ROOTS, make_radiuss_repo,
)
from repro.spec import parse_one

REPOS = {"mock": make_mock_repo(), "radiuss": make_radiuss_repo()}
ROOTS = {"mock": REPOS["mock"].names(), "radiuss": list(RADIUSS_ROOTS)}
#: roots with an ``mpi`` dependency, which a ``^provider`` can constrain
MPI_ROOTS = {"mock": ["app", "example", "example-ng", "tool"],
             "radiuss": list(MPI_DEPENDENT_ROOTS)}


def everything(repo, roots, hash_names, cached_children):
    return set(repo.names()) | set(repo.virtual_names()) | set(cached_children)


def outcome(repo, cache, request, splicing):
    """What a solve answers: root hash, builds and splices, or failure."""
    concretizer = Concretizer(repo, reusable_specs=cache, splicing=splicing)
    try:
        result = concretizer.solve([request])
    except UnsatisfiableError:
        return "unsat"
    return (
        result.roots[0].dag_hash(),
        sorted(s.name for s in result.built),
        sorted(s.name for s in result.spliced),
    )


@st.composite
def requests(draw):
    """A root of either repo, optionally ``^provider`` and ``/hash`` of a
    cached node of its DAG, against a small cache that may hold the root
    built on the ``mpich`` every ``mpiabi`` can splice into."""
    name = draw(st.sampled_from(sorted(REPOS)))
    repo, roots = REPOS[name], ROOTS[name]
    # "mpiabi" is also among the providers: doubled, it favours splices
    provider = draw(st.sampled_from([None, "mpiabi"] + repo.providers("mpi")))
    root = draw(st.sampled_from(roots if provider is None else MPI_ROOTS[name]))
    providers = [None] + [{"mpi": p} for p in repo.providers("mpi")]
    cache = vary_configurations(
        repo, roots, count=draw(st.integers(0, 3)),
        seed=draw(st.integers(0, 10_000)), providers=providers,
    )
    if draw(st.booleans()):
        cache.append(greedy_concretize(
            repo, root, versions={"mpich": SPLICE_TARGET_MPICH},
            include_build_deps=False,
        ))
    head, deps = root, []
    if provider is not None:
        deps.append(f"^{provider}")
    nodes = [node for spec in cache if spec.name == root for node in spec.traverse()]
    if nodes and draw(st.booleans()):
        node = draw(st.sampled_from(nodes))
        if node.name == root:
            head = f"{root}/{node.dag_hash(10)}"
        else:
            deps.append(f"^{node.name}/{node.dag_hash(10)}")
    request = " ".join([head] + deps)
    return repo, cache, request, draw(st.booleans())


class TestPrunedEqualsWidened:
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(requests())
    def test_same_answer(self, case):
        repo, cache, request, splicing = case
        pruned = outcome(repo, cache, request, splicing)
        with mock.patch.object(concretizer_module, "possible_dependencies", everything):
            widened = outcome(repo, cache, request, splicing)
        assert pruned == widened, request


class TestClosure:
    def test_follows_declared_dependencies_and_providers(self):
        names = possible_dependencies(REPOS["mock"], [parse_one("example")], [], {})
        assert names == {
            "example", "bzip2", "zlib", "mpi", "mpich", "openmpi", "mpiabi",
        }

    def test_follows_cached_link_run_edges(self):
        names = possible_dependencies(
            REPOS["mock"], [parse_one("zlib")], [],
            {"zlib": ["ghost"], "ghost": ["spook"]},
        )
        assert names == {"zlib", "ghost", "spook"}

    def test_hash_names_seed_the_closure(self):
        names = possible_dependencies(REPOS["mock"], [parse_one("zlib")], ["tool"], {})
        assert "tool" in names and "example" in names

    def test_solve_encodes_only_the_closure(self):
        repo = REPOS["radiuss"]
        cache = vary_configurations(repo, RADIUSS_ROOTS, count=6, seed=1)
        result = Concretizer(repo, reusable_specs=cache).solve(["zlib"])
        nodes = {n.dag_hash(): n.name for spec in cache for n in spec.traverse()}
        zlibs = [h for h, name in nodes.items() if name == "zlib"]
        assert 0 < len(zlibs) < len(nodes)
        assert result.stats["reusable_nodes"] == len(zlibs)
