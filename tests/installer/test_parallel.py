"""Parallel-install tests (the spack install -j analogue)."""

import threading

import pytest

from repro.binary.loader import Loader
from repro.concretize import Concretizer
from repro.installer import Builder, InstallError, Installer
from repro.repos.mock import make_mock_repo
from repro.repos.radiuss import make_radiuss_repo


@pytest.fixture()
def repo():
    return make_mock_repo()


class TestCorrectness:
    def test_same_outcome_as_serial(self, repo, tmp_path):
        spec = Concretizer(repo).solve(["app ^mpich@3.4.3"]).roots[0]
        serial = Installer(tmp_path / "serial", repo)
        serial.install(spec)
        parallel = Installer(tmp_path / "parallel", repo)
        parallel.install(spec, jobs=4)
        assert len(serial.database) == len(parallel.database)
        for record in serial.database:
            assert parallel.database.get(record.spec.dag_hash()) is not None

    def test_dependency_order_respected(self, repo, tmp_path):
        """Every built binary's RPATHs resolve — impossible if a parent
        built before its dependency existed."""
        spec = Concretizer(repo).solve(["tool ^example@1.0.0 ^zlib@=1.2.11 ^mpich@3.4.3"]).roots[0]
        installer = Installer(tmp_path / "store", repo)
        installer.install(spec, jobs=8)
        prefix = installer.database.prefix_of(spec)
        assert Loader().load(f"{prefix}/lib/libtool.so").ok

    def test_shared_nodes_installed_once(self, repo, tmp_path):
        result = Concretizer(repo).solve(
            ["example@1.1.0 ^mpich@3.4.3", "example-ng"]
        )
        installer = Installer(tmp_path / "store", repo)
        report = installer.install_all(result.roots, jobs=4)
        assert report.built.count("zlib") == 1

    def test_database_persisted(self, repo, tmp_path):
        spec = Concretizer(repo).solve(["zlib"]).roots[0]
        Installer(tmp_path / "s", repo).install(spec, jobs=2)
        from repro.installer.database import Database

        assert len(Database(tmp_path / "s")) == 1

    def test_idempotent_reinstall(self, repo, tmp_path):
        spec = Concretizer(repo).solve(["example@1.1.0 ^mpich@3.4.3"]).roots[0]
        installer = Installer(tmp_path / "store", repo)
        installer.install(spec, jobs=4)
        report = installer.install(spec, jobs=4)
        assert not report.built
        assert len(report.already) == 4


def gate_builds(monkeypatch, names):
    """Hold the builds of the two packages ``names`` at a two-party
    barrier.  Each passes only when the other is in flight at the same
    time, so an install that runs them one after the other fails with a
    broken barrier instead of passing on a lucky clock."""
    barrier = threading.Barrier(2, timeout=10)
    build = Builder.build

    def gated(self, spec, prefix, dep_prefix):
        if spec.name in names:
            barrier.wait()
        return build(self, spec, prefix, dep_prefix)

    monkeypatch.setattr(Builder, "build", gated)


class TestConcurrency:
    def test_independent_nodes_overlap(self, monkeypatch, tmp_path):
        """Independent leaves of a wide DAG build at the same time:
        lvarray's leaves blt and cmake must both be in flight at once."""
        repo = make_radiuss_repo()
        spec = Concretizer(repo).solve(["lvarray"]).roots[0]
        gate_builds(monkeypatch, {"blt", "cmake"})
        installer = Installer(tmp_path / "store", repo)
        report = installer.install(spec, jobs=8)
        assert {"blt", "cmake"} <= set(report.built)

    def test_max_concurrency_observed(self, monkeypatch, repo, tmp_path):
        from repro.installer.parallel import run_parallel_install

        result = Concretizer(repo).solve(["tool ^mpich@3.4.3"])
        gate_builds(monkeypatch, {"bzip2", "zlib"})
        installer = Installer(tmp_path / "store", repo)
        plan = run_parallel_install(installer, result.roots, jobs=4)
        assert not plan.failed
        assert plan.max_concurrency >= 2, "leaves build simultaneously"


class TestFailureIsolation:
    def test_failed_node_poisons_only_dependents(self, tmp_path):
        """cray-mpich is not buildable: installing a DAG containing it
        from source fails for it and its dependents, but reports the
        failure instead of corrupting the store."""
        repo = make_radiuss_repo()
        from repro.buildcache import external_spec

        # fabricate a spliced DAG whose replacement has no binary:
        # external_spec itself rejects empty prefixes, so model an
        # external whose prefix went missing after the spec was made
        cached = Concretizer(repo).solve(["hypre ^mpich@3.4.3"]).roots[0]
        cray = external_spec(repo, "cray-mpich", "/opt/cray/pe/mpich")
        cray.external_prefix = ""  # broken: the binaries are gone
        spliced = cached.splice(cray, transitive=True, replace="mpich")
        installer = Installer(tmp_path / "store", repo)
        with pytest.raises(InstallError) as excinfo:
            installer.install(spliced, jobs=4)
        message = str(excinfo.value)
        assert "cray-mpich" in message
        assert "hypre" in message, "dependent is reported as skipped/failed"
