"""Encoder-level tests: fact shapes, version sets, condition rules."""

import pytest

from repro.asp.syntax import Atom, Function, Integer, Rule, String
from repro.concretize.encode import Encoder, EncodingError
from repro.repos.mock import make_mock_repo
from repro.spec import parse_one


@pytest.fixture()
def repo():
    return make_mock_repo()


@pytest.fixture()
def encoder(repo):
    return Encoder(repo)


def facts_named(encoder, predicate):
    return [f for f in encoder.facts if f.predicate == predicate]


class TestPackageFacts:
    def test_version_declared_with_weights(self, encoder, repo):
        encoder.encode_package(repo.get("zlib"))
        decls = [
            f.args[1]
            for f in facts_named(encoder, "pkg_fact")
            if isinstance(f.args[1], Function)
            and f.args[1].name == "version_declared"
        ]
        # newest first → weight 0
        by_version = {d.args[0].value: d.args[1].value for d in decls}
        assert by_version["1.3"] == 0
        assert by_version["1.0"] == max(by_version.values())

    def test_variant_facts(self, encoder, repo):
        encoder.encode_package(repo.get("mpich"))
        pkg_facts = facts_named(encoder, "pkg_fact")
        kinds = {
            f.args[1].name for f in pkg_facts if isinstance(f.args[1], Function)
        }
        assert {"variant", "variant_default", "variant_possible"} <= kinds
        possible = {
            f.args[1].args[1].value
            for f in pkg_facts
            if isinstance(f.args[1], Function)
            and f.args[1].name == "variant_possible"
            and f.args[1].args[0].value == "pmi"
        }
        assert possible == {"pmix", "simple", "slurm"}

    def test_not_buildable_fact(self):
        from repro.repos.radiuss import make_radiuss_repo

        repo = make_radiuss_repo()
        encoder = Encoder(repo)
        encoder.encode_package(repo.get("cray-mpich"))
        assert facts_named(encoder, "not_buildable")

    def test_provider_facts_with_preference_weights(self, repo):
        encoder = Encoder(repo)
        encoder.encode_repository(repo.names() + repo.virtual_names())
        providers = facts_named(encoder, "possible_provider")
        weights = {
            f.args[0].value: f.args[2].value
            for f in providers
            if f.args[1].value == "mpi"
        }
        assert weights["mpich"] == 0
        assert weights["openmpi"] == 1  # second preference in mock repo


class TestVersionSets:
    def test_set_contains_satisfying_declared_versions(self, encoder):
        set_id = encoder.version_set("zlib", parse_one("zlib@1.2").versions)
        members = {
            f.args[1].value
            for f in facts_named(encoder, "version_in_set")
            if f.args[0].value == set_id
        }
        assert members == {"1.2", "1.2.11"}

    def test_sets_deduplicated(self, encoder):
        a = encoder.version_set("zlib", parse_one("zlib@1.2").versions)
        b = encoder.version_set("zlib", parse_one("zlib@1.2").versions)
        assert a == b

    def test_distinct_constraints_distinct_sets(self, encoder):
        a = encoder.version_set("zlib", parse_one("zlib@1.2").versions)
        b = encoder.version_set("zlib", parse_one("zlib@1.3").versions)
        assert a != b


class TestConditionRules:
    def test_conditional_dependency_generates_condition(self, encoder, repo):
        encoder.encode_package(repo.get("example"))
        heads = {
            r.head.predicate for r in encoder.rules if isinstance(r.head, Atom)
        }
        assert "condition_holds" in heads
        # the bzip2 dep is guarded by the +bzip variant somewhere
        guard_rules = [
            r
            for r in encoder.rules
            if isinstance(r.head, Atom) and r.head.predicate == "condition_holds"
        ]
        assert any(
            any(
                getattr(getattr(b, "atom", None), "args", None)
                and any(
                    getattr(a, "value", None) == "bzip" for a in b.atom.args
                )
                for b in r.body
            )
            for r in guard_rules
        )

    def test_virtual_dependency_rule(self, encoder, repo):
        encoder.encode_package(repo.get("example"))
        heads = [
            r.head
            for r in encoder.rules
            if isinstance(r.head, Atom)
            and r.head.predicate == "attr"
            and r.head.args
            and getattr(r.head.args[0], "value", None) == "virtual_dependency"
        ]
        assert heads, "depends_on('mpi') compiles to a virtual_dependency rule"

    def test_constraint_on_virtual_rejected(self, repo):
        from repro.package import Package, Repository, depends_on, version, provides

        bad_repo = Repository()

        class Impl(Package):
            version("1")
            provides("v")

        class User(Package):
            version("1")
            depends_on("v@2")  # versioned virtual constraint: unsupported

        bad_repo.add(Impl)
        bad_repo.add(User)
        with pytest.raises(EncodingError):
            Encoder(bad_repo).encode_package(User)


class TestRequestEncoding:
    def test_root_and_forced_attrs(self, encoder):
        encoder.encode_request([parse_one("example@1.1.0 +bzip")])
        assert facts_named(encoder, "root")
        forced = [
            f
            for f in facts_named(encoder, "attr")
            if getattr(f.args[0], "value", None) == "variant"
        ]
        assert forced

    def test_dep_constraint_emits_requested_dep(self, encoder):
        encoder.encode_request([parse_one("tool ^zlib@1.2")])
        deps = facts_named(encoder, "requested_dep")
        assert [(f.args[0].value, f.args[1].value) for f in deps] == [
            ("tool", "zlib")
        ]

    def test_unknown_package_rejected(self, encoder):
        with pytest.raises(EncodingError):
            encoder.encode_request([parse_one("nonexistent")])

    def test_virtual_root_rejected(self, encoder):
        with pytest.raises(EncodingError):
            encoder.encode_request([parse_one("mpi")])

    def test_anonymous_root_rejected(self, encoder):
        with pytest.raises(EncodingError):
            encoder.encode_request([parse_one("@1.0")])

    def test_forbidden_rule_emitted(self, encoder):
        encoder.encode_request([parse_one("example")], forbidden=["mpich"])
        constraints = [r for r in encoder.rules if r.head is None]
        assert any(
            any(
                "mpich" in repr(b) for b in r.body
            )
            for r in constraints
        )
