"""Installer tests: builds, cache extraction, splice rewiring, externals."""

import pytest

from repro.binary.loader import Loader
from repro.binary.mockelf import MockBinary
from repro.buildcache import BuildCache, external_spec
from repro.concretize import Concretizer
from repro.installer import InstallError, Installer
from repro.repos.mock import make_mock_repo


@pytest.fixture()
def repo():
    return make_mock_repo()


@pytest.fixture()
def spec(repo):
    return Concretizer(repo).solve(["example@1.1.0 ^mpich@3.4.3"]).roots[0]


class TestSourceInstall:
    def test_builds_dependencies_first(self, repo, spec, tmp_path):
        installer = Installer(tmp_path / "store", repo)
        report = installer.install(spec)
        assert len(report.built) == 4
        assert report.built.index("zlib") < report.built.index("example")

    def test_prefixes_created_with_artifacts(self, repo, spec, tmp_path):
        installer = Installer(tmp_path / "store", repo)
        installer.install(spec)
        prefix = installer.database.prefix_of(spec)
        binary = MockBinary.read(f"{prefix}/lib/libexample.so")
        assert binary.built_from == spec.dag_hash()
        assert "libmpich.so" in binary.needed

    def test_install_idempotent(self, repo, spec, tmp_path):
        installer = Installer(tmp_path / "store", repo)
        installer.install(spec)
        report = installer.install(spec)
        assert not report.built
        assert len(report.already) == 4

    def test_installed_binary_loads(self, repo, spec, tmp_path):
        installer = Installer(tmp_path / "store", repo)
        installer.install(spec)
        prefix = installer.database.prefix_of(spec)
        assert Loader().load(f"{prefix}/lib/libexample.so").ok

    def test_abstract_spec_rejected(self, repo, tmp_path):
        from repro.spec import parse_one

        installer = Installer(tmp_path / "store", repo)
        with pytest.raises(InstallError):
            installer.install(parse_one("zlib"))

    def test_simulated_build_time_accumulates(self, repo, spec, tmp_path):
        installer = Installer(tmp_path / "store", repo)
        report = installer.install(spec)
        assert report.simulated_build_time > 0


class TestCacheInstall:
    def test_extract_instead_of_build(self, repo, spec, tmp_path):
        source = Installer(tmp_path / "a", repo)
        source.install(spec)
        cache = BuildCache(tmp_path / "cache")
        source.push_to_cache(cache, spec)

        target = Installer(tmp_path / "b", repo, caches=[cache])
        report = target.install(spec)
        assert not report.built
        assert len(report.extracted) == 4

    def test_extracted_binary_loads_from_new_store(self, repo, spec, tmp_path):
        source = Installer(tmp_path / "a", repo)
        source.install(spec)
        cache = BuildCache(tmp_path / "cache")
        source.push_to_cache(cache, spec)
        target = Installer(tmp_path / "b", repo, caches=[cache])
        target.install(spec)
        prefix = target.database.prefix_of(spec)
        result = Loader().load(f"{prefix}/lib/libexample.so")
        assert result.ok
        assert all(str(tmp_path / "b") in p for p in result.resolved.values())


class TestSplicedInstall:
    def _cached_stack(self, repo, spec, tmp_path):
        source = Installer(tmp_path / "a", repo)
        source.install(spec)
        cache = BuildCache(tmp_path / "cache")
        source.push_to_cache(cache, spec)
        return cache

    def test_rewire_path(self, repo, spec, tmp_path):
        cache = self._cached_stack(repo, spec, tmp_path)
        c = Concretizer(repo, reusable_specs=cache.all_specs(), splicing=True)
        spliced = c.solve(["example@1.1.0 ^mpiabi"]).roots[0]
        target = Installer(tmp_path / "b", repo, caches=[cache])
        report = target.install(spliced)
        assert report.built == ["mpiabi"]
        assert report.rewired == ["example"]

    def test_rewired_binary_points_at_replacement(self, repo, spec, tmp_path):
        cache = self._cached_stack(repo, spec, tmp_path)
        c = Concretizer(repo, reusable_specs=cache.all_specs(), splicing=True)
        spliced = c.solve(["example@1.1.0 ^mpiabi"]).roots[0]
        target = Installer(tmp_path / "b", repo, caches=[cache])
        target.install(spliced)
        prefix = target.database.prefix_of(spliced)
        binary = MockBinary.read(f"{prefix}/lib/libexample.so")
        assert "libmpiabi.so" in binary.needed
        assert "libmpich.so" not in binary.needed
        result = Loader().load(f"{prefix}/lib/libexample.so")
        assert result.ok and "libmpiabi.so" in result.resolved

    def test_unsafe_manual_splice_refused(self, repo, spec, tmp_path):
        cache = self._cached_stack(repo, spec, tmp_path)
        openmpi = Concretizer(repo).solve(["openmpi"]).roots[0]
        unsafe = spec.splice(openmpi, transitive=True, replace="mpich")
        target = Installer(tmp_path / "b", repo, caches=[cache])
        target.install(unsafe["openmpi"])
        from repro.binary.rewire import RewireError

        with pytest.raises(InstallError, match="ABI incompatible") as excinfo:
            target.install(unsafe)
        causes = []
        error = excinfo.value
        while error is not None:
            causes.append(type(error))
            error = error.__cause__
        assert RewireError in causes

    def test_unsafe_splice_allowed_without_verification(self, repo, spec, tmp_path):
        cache = self._cached_stack(repo, spec, tmp_path)
        openmpi = Concretizer(repo).solve(["openmpi"]).roots[0]
        unsafe = spec.splice(openmpi, transitive=True, replace="mpich")
        target = Installer(tmp_path / "b", repo, caches=[cache], verify_abi=False)
        target.install(unsafe)
        # ...but the loader still catches the broken deployment
        prefix = target.database.prefix_of(unsafe)
        result = Loader().load(f"{prefix}/lib/libexample.so")
        assert not result.ok and result.layout_conflicts

    def test_splice_without_binary_fails(self, repo, spec, tmp_path):
        # splicing needs the original binary to relink (no cache here)
        mpiabi = Concretizer(repo).solve(["mpiabi"]).roots[0]
        spliced = spec.splice(mpiabi, transitive=True, replace="mpich")
        target = Installer(tmp_path / "b", repo)
        with pytest.raises(InstallError):
            target.install(spliced)


class TestExternals:
    def test_external_registered_not_built(self, repo, tmp_path):
        vendor = external_spec(repo, "mpich", str(tmp_path / "vendor"))
        installer = Installer(tmp_path / "store", repo)
        report = installer.install(vendor)
        assert report.externals == ["mpich"]
        assert not report.built
        assert installer.database.prefix_of(vendor) == str(tmp_path / "vendor")
