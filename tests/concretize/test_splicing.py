"""Automatic splice synthesis in the concretizer (Sections 5.2–5.4, RQ2)."""

import pytest

from repro.concretize import Concretizer, UnsatisfiableError
from repro.concretize.cansplice import CanSpliceCompiler
from repro.concretize.encode import Encoder
from repro.repos.mock import make_mock_repo
from repro.repos.radiuss import make_radiuss_repo, add_mpiabi_replicas
from repro.buildcache import external_spec, generate_cache_specs


@pytest.fixture()
def repo():
    return make_mock_repo()


@pytest.fixture()
def cached(repo):
    """example@1.1.0 built against the splice target mpich@3.4.3."""
    return Concretizer(repo).solve(["example@1.1.0 ^mpich@3.4.3"]).roots[0]


class TestSpliceSynthesis:
    def test_splice_instead_of_rebuild(self, repo, cached):
        c = Concretizer(repo, reusable_specs=[cached], splicing=True)
        result = c.solve(["example@1.1.0 ^mpiabi"])
        assert {s.name for s in result.built} == {"mpiabi"}
        assert {s.name for s in result.spliced} == {"example"}

    def test_without_splicing_rebuilds(self, repo, cached):
        c = Concretizer(repo, reusable_specs=[cached], splicing=False)
        result = c.solve(["example@1.1.0 ^mpiabi"])
        assert "example" in {s.name for s in result.built}

    def test_spliced_root_has_build_spec(self, repo, cached):
        c = Concretizer(repo, reusable_specs=[cached], splicing=True)
        root = c.solve(["example@1.1.0 ^mpiabi"]).roots[0]
        assert root.spliced
        assert root.build_spec.dag_hash() == cached.dag_hash()
        assert "mpiabi" in root and "mpich" not in root

    def test_spliced_build_deps_dropped(self, repo):
        cached_app = Concretizer(repo).solve(["app ^mpich@3.4.3"]).roots[0]
        assert cached_app.dependency_edge("cmake") is not None
        c = Concretizer(repo, reusable_specs=[cached_app], splicing=True)
        root = c.solve(["app ^mpiabi"]).roots[0]
        assert root.spliced
        assert root.dependency_edge("cmake") is None

    def test_splice_target_version_constrained(self, repo):
        """mpiabi declares can_splice("mpich@3.4.3") — a stack built with
        mpich@4.1 is NOT a valid splice target."""
        cached = Concretizer(repo).solve(["example@1.1.0 ^mpich@4.1"]).roots[0]
        c = Concretizer(repo, reusable_specs=[cached], splicing=True)
        result = c.solve(["example@1.1.0 ^mpiabi"])
        assert "example" in {s.name for s in result.built}, "no valid splice"
        assert not result.spliced

    def test_incompatible_provider_never_spliced(self, repo, cached):
        """openmpi has no can_splice for mpich → rebuild (ABI safety)."""
        c = Concretizer(repo, reusable_specs=[cached], splicing=True)
        result = c.solve(["example@1.1.0 ^openmpi"])
        assert "example" in {s.name for s in result.built}
        assert not result.spliced

    def test_same_package_version_splice(self, repo):
        """zlib-style splices in mock repo: example@1.1.0 can replace
        built example@1.0.0 (same package, Figure-1 line 20)."""
        old = Concretizer(repo).solve(
            ["tool ^example@1.0.0 ^mpich@3.4.3 ^zlib@=1.2.11"]
        ).roots[0]
        c = Concretizer(repo, reusable_specs=[old], splicing=True)
        # request tool with example@1.1.0: tool itself can be reused via
        # splice of a (built) example@1.1.0 -- but none is cached, and
        # building example@1.1.0 then splicing still beats rebuilding tool
        result = c.solve(["tool ^example@1.1.0"])
        built = {s.name for s in result.built}
        assert "tool" not in built, "tool reused via splice"
        assert "example" in built

    def test_forbidden_original_forces_splice(self, repo, cached):
        c = Concretizer(repo, reusable_specs=[cached], splicing=True)
        result = c.solve(["example@1.1.0"], forbidden=["mpich"])
        assert {s.name for s in result.spliced} == {"example"}
        assert "mpich" not in result.roots[0]

    def test_splice_disabled_is_default(self, repo, cached):
        assert Concretizer(repo, reusable_specs=[cached]).splicing is False


class TestTransitiveSpliceSolutions:
    def test_deep_splice_rewires_chain(self):
        repo = make_radiuss_repo()
        cached = Concretizer(repo).solve(["mfem ^mpich@3.4.3"]).roots[0]
        c = Concretizer(repo, reusable_specs=[cached], splicing=True)
        result = c.solve(["mfem ^mpiabi"])
        spliced = {s.name for s in result.spliced}
        assert "mfem" in spliced and "hypre" in spliced
        assert {s.name for s in result.built} == {"mpiabi"}
        root = result.roots[0]
        assert root["hypre"].build_spec is not None
        assert "mpich" not in root

    def test_external_cray_mpich_splice(self):
        repo = make_radiuss_repo()
        cached = Concretizer(repo).solve(["hypre ^mpich@3.4.3"]).roots[0]
        cray = external_spec(repo, "cray-mpich", "/opt/cray/pe/mpich")
        c = Concretizer(
            repo, reusable_specs=[cached, cray], splicing=True
        )
        result = c.solve(["hypre ^cray-mpich"])
        assert not result.built, "external + splice = zero builds"
        assert {s.name for s in result.spliced} == {"hypre"}
        assert result.roots[0]["cray-mpich"].external


class TestScalingReplicas:
    def test_replica_splices(self):
        repo = make_radiuss_repo()
        names = add_mpiabi_replicas(repo, 5)
        cached = Concretizer(repo).solve(["hypre ^mpich@3.4.3"]).roots[0]
        c = Concretizer(repo, reusable_specs=[cached], splicing=True)
        result = c.solve(["hypre"], forbidden=["mpich"])
        assert {s.name for s in result.spliced} == {"hypre"}
        provider = {n.name for n in result.roots[0].traverse()} & set(
            names + ["mpiabi", "mvapich2"]
        )
        assert provider, "some MPICH-ABI replica was chosen"


class TestCanSpliceCompilation:
    def test_figure4a_rule_shape(self, repo):
        """The compiled rule matches hash_attr facts of the target and
        attr facts of the splicing node (Figure 4a)."""
        encoder = Encoder(repo)
        rules = CanSpliceCompiler(repo, encoder).compile_all(repo.names())
        heads = {r.head.predicate for r in rules}
        assert heads == {"can_splice"}
        example_rules = [
            r for r in rules if r.head.args[0].args[0].value == "example"
        ]
        assert len(example_rules) == 2
        cross = [
            r for r in example_rules if r.head.args[1].value == "example-ng"
        ][0]
        body_preds = [getattr(b, "atom", None) for b in cross.body]
        assert any(
            a is not None and a.predicate == "hash_attr" for a in body_preds
        )
        assert any(
            a is not None and a.predicate == "installed_hash" for a in body_preds
        )

    def test_when_constraints_respected(self, repo):
        """example@1.0.0 (when=@1.1.0 not met) must not splice."""
        old_target = Concretizer(repo).solve(
            ["tool ^example@1.0.0 ^mpich@3.4.3 ^zlib@=1.2.11"]
        ).roots[0]
        c = Concretizer(repo, reusable_specs=[old_target], splicing=True)
        # requesting example@1.0.0 to replace example@1.0.0: fine (reuse);
        # but a DIFFERENT example@1.0.0 config cannot splice in since the
        # directive requires the splicing node be @1.1.0
        result = c.solve(["tool ^example@1.0.0~bzip"])
        assert "tool" in {s.name for s in result.built}
