"""Parallel-install tests (the spack install -j analogue)."""

import sys
import threading
from pathlib import Path

import pytest

import repro.obs as obs
from repro.binary.loader import Loader
from repro.concretize import Concretizer
from repro.installer import Builder, InstallError, Installer
from repro.obs import metrics
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

    def test_splices_of_one_binary_rewire_side_by_side(self, monkeypatch,
                                                        repo, tmp_path):
        """Two splices of one cached binary: the second has located the
        staged build spec before the first discards its staging tree,
        and must still install a complete, loadable prefix."""
        from repro.buildcache import BuildCache, external_spec

        spec = Concretizer(repo).solve(["example@1.1.0 ^mpich@3.4.3"]).roots[0]
        seed = Installer(tmp_path / "seed", repo)
        seed.install(spec)
        cache = BuildCache(tmp_path / "cache")
        seed.push_to_cache(cache, spec)
        mpiabi = Concretizer(repo).solve(["mpiabi"]).roots[0]
        vendor = external_spec(repo, "mpich", str(tmp_path / "vendor"))
        roots = [
            spec.splice(mpiabi, transitive=True, replace="mpich"),
            spec.splice(vendor, transitive=True),
        ]
        staged, second_located, discarded = (threading.Event() for _ in "abc")
        locate, discard = Installer._locate_build_spec, Installer._discard_staging
        lock, callers = threading.Lock(), []

        def located(self, node):
            with lock:
                first = not callers
                callers.append(node)
            if not first:
                assert staged.wait(10)
            found = locate(self, node)
            if first:
                staged.set()
                assert second_located.wait(10)
            else:
                second_located.set()
                assert discarded.wait(10)
            return found

        def discarding(self, source_prefix):
            discard(self, source_prefix)
            discarded.set()

        monkeypatch.setattr(Installer, "_locate_build_spec", located)
        monkeypatch.setattr(Installer, "_discard_staging", discarding)
        installer = Installer(tmp_path / "store", repo, caches=[cache])
        report = installer.install_all(roots, jobs=4)
        assert report.rewired == ["example", "example"]
        libs = [
            Path(installer.database.prefix_of(root), "lib", "libexample.so")
            for root in roots
        ]
        assert all(lib.is_file() for lib in libs)
        assert Loader().load(str(libs[0])).ok  # the vendor prefix is empty

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
        result = Concretizer(repo).solve(["tool ^mpich@3.4.3"])
        gate_builds(monkeypatch, {"bzip2", "zlib"})
        obs.reset()
        installer = Installer(tmp_path / "store", repo)
        installer.install_all(result.roots, jobs=4)
        peak = metrics.gauge("install.max_concurrency").value
        assert peak >= 2, "leaves build simultaneously"

    def test_bookkeeping_survives_thread_switches(self, tmp_path):
        """More workers than cores, switching threads every microsecond:
        every node is recorded once and no worker slot is lost."""
        repo = make_radiuss_repo()
        roots = Concretizer(repo).solve(["hypre", "sundials", "zfp"]).roots
        nodes = {n.dag_hash() for r in roots for n in r.traverse()}
        obs.reset()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            installer = Installer(tmp_path / "store", repo)
            report = installer.install_all(roots, jobs=8)
        finally:
            sys.setswitchinterval(interval)
        assert len(report.installed) == len(nodes)
        assert len(installer.database) == len(nodes)
        occupancy = metrics.histogram("install.worker_occupancy").values
        assert len(occupancy) == len(nodes) and max(occupancy) <= 8

    def test_one_worker_runs_on_the_calling_thread(self, monkeypatch, repo,
                                                   tmp_path):
        """One worker builds every node itself: no pool thread runs."""
        threads = set()
        build = Builder.build

        def recorded(self, spec, prefix, dep_prefix):
            threads.add(threading.get_ident())
            return build(self, spec, prefix, dep_prefix)

        monkeypatch.setattr(Builder, "build", recorded)
        spec = Concretizer(repo).solve(["tool ^mpich@3.4.3"]).roots[0]
        report = Installer(tmp_path / "store", repo).install(spec, jobs=1)
        assert len(report.built) > 1
        assert threads == {threading.get_ident()}


class TestFailureIsolation:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_failed_node_poisons_only_dependents(self, tmp_path, jobs):
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
            installer.install(spliced, jobs=jobs)
        message = str(excinfo.value)
        assert "cray-mpich" in message
        assert "hypre" in message, "dependent is reported as skipped/failed"

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_failed_wave_records_every_prefix_it_created(self, repo, tmp_path,
                                                         jobs):
        """Splicing example onto mpiabi with no cache builds its leaves,
        then fails at example (no binary to relink): every prefix the
        wave created is in db.json all the same."""
        from repro.installer.database import Database

        spec = Concretizer(repo).solve(["example@1.1.0 ^mpich@3.4.3"]).roots[0]
        mpiabi = Concretizer(repo).solve(["mpiabi"]).roots[0]
        spliced = spec.splice(mpiabi, transitive=True, replace="mpich")
        store = tmp_path / "store"
        with pytest.raises(InstallError, match="no binary for build spec"):
            Installer(store, repo).install(spliced, jobs=jobs)
        prefixes = sorted(
            str(p) for p in store.iterdir() if p.is_dir() and p.name[0] != "."
        )
        assert len(prefixes) == 3
        recorded = sorted(r.prefix for r in Database(store))
        assert recorded == prefixes

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_nothing_cached_locally_in_an_empty_store(self, tmp_path, jobs):
        """Roots sharing dependencies install each node once; none of
        them was in the store before the request."""
        repo = make_radiuss_repo()
        result = Concretizer(repo).solve(["hypre", "sundials", "zfp"])
        report = Installer(tmp_path / "store", repo).install_all(
            result.roots, jobs=jobs
        )
        assert report.already == []
        assert len(report.installed) == len(
            {n.dag_hash() for r in result.roots for n in r.traverse()}
        )
