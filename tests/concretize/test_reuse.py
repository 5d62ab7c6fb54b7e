"""Reuse of installed specs — both encodings (RQ1 correctness half)."""

import pytest

from repro.concretize import (
    Concretizer,
    NEW_ENCODING,
    OLD_ENCODING,
    ReuseEncoder,
    UnsatisfiableError,
)
from repro.repos.mock import make_mock_repo


@pytest.fixture()
def repo():
    return make_mock_repo()


@pytest.fixture()
def cached(repo):
    """A pre-built example@1.1.0 stack (the reusable spec)."""
    return Concretizer(repo).solve(["example@1.1.0 ^mpich@3.4.3"]).roots[0]


BOTH = pytest.mark.parametrize("encoding", [OLD_ENCODING, NEW_ENCODING])


def encode_all(encoder, specs):
    """Encode every node of the given DAGs (every name is possible)."""
    nodes = [node for spec in specs for node in spec.traverse()]
    return encoder.encode_nodes(nodes, {node.name for node in nodes})


class TestReuseBehaviour:
    @BOTH
    def test_full_reuse_no_builds(self, repo, cached, encoding):
        c = Concretizer(repo, reusable_specs=[cached], encoding=encoding)
        result = c.solve(["example@1.1.0"])
        assert not result.built
        assert result.roots[0].dag_hash() == cached.dag_hash()

    @BOTH
    def test_partial_reuse_of_dependencies(self, repo, cached, encoding):
        c = Concretizer(repo, reusable_specs=[cached], encoding=encoding)
        result = c.solve(["tool"])
        built = {s.name for s in result.built}
        assert "tool" in built
        assert "zlib" not in built, "cached zlib is reused"
        assert "example" not in built

    @BOTH
    def test_incompatible_constraint_forces_build(self, repo, cached, encoding):
        c = Concretizer(repo, reusable_specs=[cached], encoding=encoding)
        result = c.solve(["example@1.1.0 ^mpich@4.1"])
        built = {s.name for s in result.built}
        assert "example" in built and "mpich" in built

    @BOTH
    def test_variant_mismatch_forces_build(self, repo, cached, encoding):
        c = Concretizer(repo, reusable_specs=[cached], encoding=encoding)
        result = c.solve(["example@1.1.0 ~bzip"])
        assert "example" in {s.name for s in result.built}

    @BOTH
    def test_reuse_beats_newer_version(self, repo, encoding):
        old = Concretizer(repo).solve(["zlib@=1.2.11"]).roots[0]
        c = Concretizer(repo, reusable_specs=[old], encoding=encoding)
        result = c.solve(["zlib"])
        assert not result.built, "reusing 1.2.11 beats building 1.3"
        assert result.roots[0].version.string == "1.2.11"

    @BOTH
    def test_built_nodes_still_prefer_newest(self, repo, cached, encoding):
        c = Concretizer(repo, reusable_specs=[cached], encoding=encoding)
        result = c.solve(["app"])
        assert result.roots[0].version.string == "2.0"

    def test_encodings_agree_on_solution(self, repo, cached):
        """The paper's RQ1: the hash_attr indirection must not change
        what the concretizer produces."""
        for request in ["example@1.1.0", "tool", "app", "example~bzip"]:
            old = Concretizer(
                repo, reusable_specs=[cached], encoding=OLD_ENCODING
            ).solve([request])
            new = Concretizer(
                repo, reusable_specs=[cached], encoding=NEW_ENCODING
            ).solve([request])
            assert old.roots[0].dag_hash() == new.roots[0].dag_hash(), request
            assert {s.name for s in old.built} == {s.name for s in new.built}

    def test_splicing_requires_new_encoding(self, repo):
        with pytest.raises(ValueError):
            Concretizer(repo, encoding=OLD_ENCODING, splicing=True)


class TestReuseEncoder:
    def test_old_emits_imposed_constraint(self, cached):
        encoder = ReuseEncoder(OLD_ENCODING)
        facts = encode_all(encoder, [cached])
        predicates = {f.predicate for f in facts}
        assert "imposed_constraint" in predicates
        assert "hash_attr" not in predicates

    def test_new_emits_hash_attr(self, cached):
        encoder = ReuseEncoder(NEW_ENCODING)
        facts = encode_all(encoder, [cached])
        predicates = {f.predicate for f in facts}
        assert "hash_attr" in predicates
        assert "imposed_constraint" not in predicates

    def test_figure3_shape(self, cached):
        """Figure 3a: version/variant/os/target/depends_on/hash per node."""
        encoder = ReuseEncoder(NEW_ENCODING)
        facts = encode_all(encoder, [cached])
        h = cached.dag_hash()
        mine = [f for f in facts if f.predicate == "hash_attr"
                and f.args[0].value == h]
        kinds = {f.args[1].value for f in mine}
        assert kinds == {
            "version", "variant", "node_os", "node_target", "depends_on", "hash"
        }

    def test_nodes_deduplicated(self, repo):
        a = Concretizer(repo).solve(["example@1.1.0 ^mpich@3.4.3"]).roots[0]
        encoder = ReuseEncoder(NEW_ENCODING)
        encode_all(encoder, [a, a])
        hashes = [f for f in encoder.facts if f.predicate == "installed_hash"]
        assert len(hashes) == len({(f.args[0].value, f.args[1].value) for f in hashes})

    def test_build_deps_not_encoded(self, repo):
        spec = Concretizer(repo).solve(["app"]).roots[0]
        assert spec.dependency_edge("cmake") is not None
        encoder = ReuseEncoder(NEW_ENCODING)
        facts = encode_all(encoder, [spec])
        dep_facts = [
            f for f in facts
            if f.predicate == "hash_attr" and f.args[1].value == "depends_on"
        ]
        children = {f.args[3].value for f in dep_facts}
        assert "cmake" not in children, "reusable specs impose link-run deps only"

    def test_unknown_encoding_rejected(self):
        with pytest.raises(ValueError):
            ReuseEncoder("fancy")

    def test_node_count(self, cached):
        encoder = ReuseEncoder(NEW_ENCODING)
        encode_all(encoder, [cached])
        assert encoder.node_count == len(list(cached.traverse()))
