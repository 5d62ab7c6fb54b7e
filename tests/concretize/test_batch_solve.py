"""Batched single-solve (``solve_all``).

``solve_all`` puts every root in ONE ASP program; the contract is
semantics preservation — each per-root view must be a valid concrete
DAG (checked against the same greedy/audit oracles as single solves),
with shared dependencies *unified* into one node per package.
"""

import pytest

from repro.analysis import Analyzer, AuditContext
from repro.concretize import (
    BatchConcretizationResult,
    Concretizer,
    UnsatisfiableError,
)
from repro.concretize import groundcache
from repro.obs import metrics
from repro.repos.mock import make_mock_repo
from repro.repos.radiuss import make_radiuss_repo


@pytest.fixture()
def repo():
    return make_mock_repo()


@pytest.fixture(autouse=True)
def clean_registries():
    groundcache.reset_ground_caches()
    yield
    groundcache.reset_ground_caches()


def counter(name):
    return metrics.snapshot()["counters"].get(name, 0)


def dag_canon(root):
    return sorted((n.name, n.dag_hash()) for n in root.traverse())


class TestSolveAll:
    def test_returns_batch_result_in_order(self, repo):
        result = Concretizer(repo).solve_all(["app", "example", "zlib"])
        assert isinstance(result, BatchConcretizationResult)
        assert [r.name for r in result.roots] == ["app", "example", "zlib"]

    def test_matches_per_root_solves(self, repo):
        batch = Concretizer(repo).solve_all(["app", "example"])
        for root in batch.roots:
            single = Concretizer(repo).solve([root.name]).roots[0]
            assert dag_canon(root) == dag_canon(single)

    def test_shared_dependencies_unify(self, repo):
        # app and example both depend on zlib: one joint model means
        # exactly one zlib node object across the environment
        result = Concretizer(repo).solve_all(["app", "example"])
        zlibs = {
            id(node)
            for root in result.roots
            for node in root.traverse()
            if node.name == "zlib"
        }
        assert len(zlibs) == 1

    def test_batch_roots_counter(self, repo):
        before = counter("concretize.batch_roots")
        Concretizer(repo).solve_all(["app", "example", "zlib"])
        assert counter("concretize.batch_roots") == before + 3

    def test_per_root_views(self, repo):
        result = Concretizer(repo).solve_all(["app", "zlib"])
        views = list(result)
        assert [v.roots[0].name for v in views] == ["app", "zlib"]
        # the zlib view must not see app's other dependencies
        assert set(views[1].by_name) == {
            n.name for n in views[1].roots[0].traverse()
        }

    def test_unsat_root_fails_whole_batch(self, repo):
        with pytest.raises(UnsatisfiableError):
            Concretizer(repo).solve_all(["app", "zlib@=9.9"])

    def test_audit_dag_checkers_pass(self, repo):
        result = Concretizer(repo).solve_all(["app", "example", "tool"])
        specs = list({
            n.dag_hash(): n
            for root in result.roots
            for n in root.traverse()
        }.values())
        report = Analyzer(["dag"]).run(
            AuditContext(repo=repo, concrete_specs=specs)
        )
        assert not report.has_errors, report.render()

    def test_audit_dag_checkers_pass_radiuss_reuse(self):
        repo = make_radiuss_repo()
        base = Concretizer(repo)
        reusable = base.solve_all(["hypre", "mfem"]).roots
        result = Concretizer(repo, reusable_specs=reusable).solve_all(
            ["mfem", "sundials"]
        )
        specs = list({
            n.dag_hash(): n
            for root in result.roots
            for n in root.traverse()
        }.values())
        report = Analyzer(["dag"]).run(
            AuditContext(repo=repo, concrete_specs=specs, reusable_specs=specs)
        )
        assert not report.has_errors, report.render()
