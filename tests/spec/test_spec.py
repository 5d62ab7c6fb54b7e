"""Spec DAG semantics: satisfies/intersects/constrain, hashing, serialization."""

import pytest
from hypothesis import given, strategies as st

from repro.spec import (
    DEPTYPE_BUILD,
    DEPTYPE_LINK_RUN,
    Spec,
    SpecError,
    UnsatisfiableSpecError,
    parse_one,
)


def concrete(text: str, deps=()):
    spec = parse_one(text)
    if spec.os is None:
        spec.os = "centos8"
    if spec.target is None:
        spec.target = "skylake"
    for dep, types in deps:
        spec.add_dependency(dep, types)
    spec._mark_concrete()
    return spec


class TestSatisfies:
    def test_name_mismatch(self):
        assert not parse_one("a@1").satisfies("b@1")

    def test_version_subset(self):
        assert parse_one("a@1.2.3").satisfies("a@1.2")
        assert not parse_one("a@1.2").satisfies("a@=1.2.3")

    def test_variant_superset(self):
        assert parse_one("a+x~y").satisfies("a+x")
        assert not parse_one("a+x").satisfies("a+x~y")

    def test_anonymous_constraint(self):
        assert parse_one("a@2+x").satisfies("@1:3")

    def test_dependency_anywhere_in_dag(self):
        z = concrete("zlib@=1.2")
        h = concrete("hdf5@=1.0", deps=[(z, (DEPTYPE_LINK_RUN,))])
        top = concrete("app@=1.0", deps=[(h, (DEPTYPE_LINK_RUN,))])
        assert top.satisfies("app ^zlib@1.2")  # transitive dep matches
        assert not top.satisfies("app ^zlib@1.3")

    def test_missing_dependency_fails(self):
        assert not parse_one("a@1").satisfies("a ^zlib")

    def test_arch(self):
        assert parse_one("a os=centos8").satisfies("a os=centos8")
        assert not parse_one("a os=centos8").satisfies("a os=ubuntu")

    def test_string_argument(self):
        assert parse_one("a@1.5+x").satisfies("a@1:2")


class TestIntersects:
    def test_version_overlap(self):
        assert parse_one("a@1:3").intersects("a@2:5")
        assert not parse_one("a@1:2").intersects("a@3:4")

    def test_variant_conflict(self):
        assert not parse_one("a+x").intersects("a~x")

    def test_anonymous_intersects_named(self):
        assert parse_one("@1:3").intersects("a@2")

    def test_symmetric(self):
        a, b = parse_one("a@1:3+x"), parse_one("a@2:5")
        assert a.intersects(b) == b.intersects(a)


class TestConstrain:
    def test_version_tightens(self):
        spec = parse_one("a@1:5")
        assert spec.constrain("a@2:3")
        assert not spec.versions.contains(parse_one("a@=1").versions.concrete)

    def test_adds_variant(self):
        spec = parse_one("a")
        spec.constrain("a+x")
        assert spec.variants["x"] == "True"

    def test_adds_dependency(self):
        spec = parse_one("a")
        spec.constrain("a ^b@2")
        assert spec.dependency_edge("b") is not None

    def test_conflict_raises(self):
        with pytest.raises(UnsatisfiableSpecError):
            parse_one("a+x").constrain("a~x")

    def test_version_conflict_raises(self):
        with pytest.raises(UnsatisfiableSpecError):
            parse_one("a@1:2").constrain("a@3:4")

    def test_concrete_not_constrainable(self):
        spec = concrete("a@=1")
        with pytest.raises(SpecError):
            spec.constrain("a@2")

    def test_constrain_returns_false_when_noop(self):
        spec = parse_one("a@2+x")
        assert spec.constrain("a@2") is False

    def test_names_anonymous(self):
        spec = parse_one("@1:3")
        spec.constrain("a")
        assert spec.name == "a"


class TestHashing:
    def test_deterministic(self):
        a = concrete("x@=1+f")
        b = concrete("x@=1+f")
        assert a.dag_hash() == b.dag_hash()

    def test_variant_changes_hash(self):
        assert concrete("x@=1+f").dag_hash() != concrete("x@=1~f").dag_hash()

    def test_dependency_changes_hash(self):
        z1 = concrete("z@=1")
        z2 = concrete("z@=2")
        a1 = concrete("a@=1", deps=[(z1, (DEPTYPE_LINK_RUN,))])
        a2 = concrete("a@=1", deps=[(z2, (DEPTYPE_LINK_RUN,))])
        assert a1.dag_hash() != a2.dag_hash()

    def test_hash_length_parameter(self):
        spec = concrete("x@=1")
        assert len(spec.dag_hash(7)) == 7
        assert spec.dag_hash().startswith(spec.dag_hash(7))

    def test_equality_via_hash(self):
        assert concrete("x@=1") == concrete("x@=1")
        assert concrete("x@=1") != concrete("x@=2")

    def test_build_spec_distinguishes_hash(self):
        plain = concrete("x@=1")
        provenance = concrete("x@=1")
        provenance.build_spec = concrete("x@=0.9")
        provenance._invalidate_hash()
        assert plain.dag_hash() != provenance.dag_hash()


class TestTraversal:
    def _diamond(self):
        z = concrete("z@=1")
        b = concrete("b@=1", deps=[(z, (DEPTYPE_LINK_RUN,))])
        c = concrete("c@=1", deps=[(z, (DEPTYPE_LINK_RUN,))])
        return concrete(
            "a@=1", deps=[(b, (DEPTYPE_LINK_RUN,)), (c, (DEPTYPE_LINK_RUN,))]
        )

    def test_preorder_root_first(self):
        a = self._diamond()
        names = [s.name for s in a.traverse()]
        assert names[0] == "a"
        assert set(names) == {"a", "b", "c", "z"}

    def test_postorder_root_last(self):
        a = self._diamond()
        assert [s.name for s in a.traverse(order="post")][-1] == "a"

    def test_getitem_finds_deep(self):
        a = self._diamond()
        assert a["z"].name == "z"
        with pytest.raises(KeyError):
            a["nope"]

    def test_contains_name(self):
        assert "z" in self._diamond()

    def test_deptype_filter(self):
        z = concrete("z@=1")
        tool = concrete("cmake@=3")
        a = concrete(
            "a@=1", deps=[(z, (DEPTYPE_LINK_RUN,)), (tool, (DEPTYPE_BUILD,))]
        )
        link_names = {s.name for s in a.traverse(deptype=DEPTYPE_LINK_RUN)}
        assert link_names == {"a", "z"}


class TestCopyAndSerialize:
    def test_copy_independent(self):
        a = parse_one("a@1 ^b@2")
        b = a.copy()
        b.dependency_edge("b").spec.variants.set("x", True)
        assert "x" not in a.dependency_edge("b").spec.variants

    def test_copy_preserves_dag_sharing(self):
        z = concrete("z@=1")
        b = concrete("b@=1", deps=[(z, (DEPTYPE_LINK_RUN,))])
        a = concrete("a@=1", deps=[(b, (DEPTYPE_LINK_RUN,)), (z, (DEPTYPE_LINK_RUN,))])
        copied = a.copy()
        assert copied["z"] is copied["b"]["z"], "shared node stays shared"

    def test_to_dict_round_trip(self):
        z = concrete("z@=1+opt")
        a = concrete("a@=2", deps=[(z, (DEPTYPE_LINK_RUN,))])
        again = Spec.from_dict(a.to_dict())
        assert again.dag_hash() == a.dag_hash()
        assert again["z"].variants["opt"] == "True"

    def test_from_dict_missing_root_raises(self):
        with pytest.raises(SpecError):
            Spec.from_dict({"root": "zzz", "nodes": []})

    def test_from_dict_memo_builds_shared_nodes_once(self):
        z = concrete("z@=1+opt")
        a = concrete("a@=2", deps=[(z, (DEPTYPE_LINK_RUN,))])
        b = concrete("b@=3", deps=[(z, (DEPTYPE_LINK_RUN,))])
        memo = {}
        first = Spec.from_dict(a.to_dict(), memo=memo)
        second = Spec.from_dict(b.to_dict(), memo=memo)
        assert first["z"] is second["z"], "one node for both documents"
        assert set(memo) == {a.dag_hash(), b.dag_hash(), z.dag_hash()}
        assert Spec.from_dict(z.to_dict(), memo=memo) is first["z"]
        assert (first.dag_hash(), second.dag_hash()) == (a.dag_hash(), b.dag_hash())

    def test_from_dict_memo_rejects_a_wrong_record_hash(self):
        z = concrete("z@=1")
        a = concrete("a@=2", deps=[(z, (DEPTYPE_LINK_RUN,))])
        document = a.to_dict()
        document["nodes"][0]["versions"] = "=9"  # z's record, hash unchanged
        memo = {}
        with pytest.raises(SpecError, match="hashes to"):
            Spec.from_dict(document, memo=memo)
        assert z.dag_hash() not in memo, "a wrong node is never shared"

    def test_validate_concrete(self):
        spec = parse_one("a@=1")
        with pytest.raises(SpecError):
            spec.validate_concrete()  # os/target missing
        concrete("a@=1").validate_concrete()


class TestAddDependency:
    def test_merges_deptypes(self):
        a = parse_one("a")
        a.add_dependency(parse_one("b@1"), (DEPTYPE_BUILD,))
        a.add_dependency(parse_one("b"), (DEPTYPE_LINK_RUN,))
        assert a.dependency_edge("b").deptypes == frozenset(
            [DEPTYPE_BUILD, DEPTYPE_LINK_RUN]
        )

    def test_merges_constraints(self):
        a = parse_one("a")
        a.add_dependency(parse_one("b@1:5"))
        a.add_dependency(parse_one("b@2:3"))
        dep = a.dependency_edge("b").spec
        assert not dep.versions.contains(parse_one("b@=1").versions.concrete)

    def test_anonymous_dependency_rejected(self):
        with pytest.raises(SpecError):
            parse_one("a").add_dependency(parse_one("@1.0"))

    def test_bad_deptype_rejected(self):
        with pytest.raises(SpecError):
            parse_one("a").add_dependency(parse_one("b"), ("runtime",))


# ---------------------------------------------------------------------------
# property-based: satisfies is a preorder w.r.t. constrain
# ---------------------------------------------------------------------------
variant_sets = st.dictionaries(
    st.sampled_from(["x", "y", "z"]), st.booleans(), max_size=3
)


@given(variant_sets, variant_sets)
def test_constrain_result_satisfies_both(va, vb):
    a = Spec("p")
    for k, v in va.items():
        a.variants.set(k, v)
    b = Spec("p")
    for k, v in vb.items():
        b.variants.set(k, v)
    conflicting = any(va.get(k) != vb[k] for k in vb if k in va)
    if conflicting:
        with pytest.raises(UnsatisfiableSpecError):
            a.constrain(b)
    else:
        a.constrain(b)
        assert a.variants.satisfies(b.variants)
