"""Failure-injection tests: corrupt artifacts, broken stores, bad input."""

import json
from pathlib import Path

import pytest

from repro.binary.loader import Loader
from repro.binary.mockelf import MockBinary
from repro.buildcache import BuildCache, BuildCacheError
from repro.concretize import Concretizer
from repro.installer import InstallError, Installer
from repro.installer.database import Database, DatabaseError
from repro.repos.mock import make_mock_repo


@pytest.fixture()
def repo():
    return make_mock_repo()


@pytest.fixture()
def pipeline(repo, tmp_path):
    spec = Concretizer(repo).solve(["example@1.1.0 ^mpich@3.4.3"]).roots[0]
    installer = Installer(tmp_path / "store", repo)
    installer.install(spec)
    cache = BuildCache(tmp_path / "cache")
    installer.push_to_cache(cache, spec)
    return spec, installer, cache


class TestCorruptArtifacts:
    def test_corrupt_binary_in_cache_copied_as_blob(self, pipeline, tmp_path):
        """A non-mock file in the cache is treated as opaque data (like
        headers or docs in a real package) — extraction must not crash."""
        spec, installer, cache = pipeline
        prefix = Path(installer.database.prefix_of(spec))
        (prefix / "share").mkdir(exist_ok=True)
        (prefix / "share" / "README").write_bytes(b"plain text, not a binary")
        cache.push(spec, prefix)
        out = tmp_path / "out"
        cache.extract(spec.dag_hash(), out)
        assert (out / "share" / "README").read_bytes() == b"plain text, not a binary"

    def test_truncated_binary_fails_load_not_install(self, pipeline, tmp_path):
        spec, installer, cache = pipeline
        prefix = installer.database.prefix_of(spec)
        target = f"{prefix}/lib/libexample.so"
        with open(target, "wb") as f:
            f.write(b"\x7fMOCKELF\x01{truncated")
        result = Loader().load(target)
        assert not result.ok

    def test_missing_dependency_binary_detected_at_load(self, pipeline):
        spec, installer, cache = pipeline
        import shutil

        zlib_prefix = installer.database.prefix_of(spec["zlib"])
        shutil.rmtree(zlib_prefix)
        prefix = installer.database.prefix_of(spec)
        result = Loader().load(f"{prefix}/lib/libexample.so")
        assert not result.ok
        assert "libzlib.so" in result.missing_libraries


class TestBrokenMetadata:
    def test_missing_cache_meta(self, pipeline, tmp_path):
        spec, installer, cache = pipeline
        bundle = cache.blobs / f"{spec.dag_hash()}.bundle"
        head, _, payload = bundle.read_bytes().partition(b"\n")
        document = json.loads(head)
        del document["meta"]
        bundle.write_bytes(
            json.dumps(document, sort_keys=True, separators=(",", ":")).encode()
            + b"\n" + payload
        )
        with pytest.raises(BuildCacheError):
            cache.extract(spec.dag_hash(), tmp_path / "x")

    def test_corrupt_cache_index(self, pipeline, tmp_path):
        cache_dir = tmp_path / "cache"
        (cache_dir / "index.json").write_text("{oops")
        with pytest.raises(BuildCacheError):
            BuildCache(cache_dir)

    def test_database_version_mismatch(self, tmp_path):
        (tmp_path / "db.json").write_text(json.dumps({"version": 99}))
        with pytest.raises(DatabaseError):
            Database(tmp_path)

    def test_dangling_spec_document(self, tmp_path):
        from repro.spec import Spec, SpecError

        with pytest.raises(SpecError):
            Spec.from_dict(
                {
                    "root": "r",
                    "nodes": [
                        {
                            "name": "a",
                            "versions": "=1.0",
                            "variants": {},
                            "os": "centos8",
                            "target": "skylake",
                            "hash": "r",
                            "dependencies": [
                                {
                                    "name": "ghost",
                                    "hash": "missing",
                                    "deptypes": ["link-run"],
                                    "virtual": None,
                                }
                            ],
                        }
                    ],
                }
            )


class TestInstallerRobustness:
    def test_splice_without_any_source_binary(self, repo, tmp_path):
        spec = Concretizer(repo).solve(["example@1.1.0 ^mpich@3.4.3"]).roots[0]
        mpiabi = Concretizer(repo).solve(["mpiabi"]).roots[0]
        spliced = spec.splice(mpiabi, transitive=True, replace="mpich")
        bare = Installer(tmp_path / "bare", repo)
        with pytest.raises(InstallError) as excinfo:
            bare.install(spliced)
        assert "splicing requires the original binary" in str(excinfo.value)

    def test_reinstall_after_partial_state(self, pipeline, repo, tmp_path):
        """A second install over an existing store is a no-op, not a
        conflict."""
        spec, installer, cache = pipeline
        report = installer.install(spec)
        assert not report.built and len(report.already) == 4

    def test_install_all_shares_common_deps(self, repo, tmp_path):
        c = Concretizer(repo)
        result = c.solve(["example@1.1.0 ^mpich@3.4.3", "example-ng"])
        installer = Installer(tmp_path / "store", repo)
        report = installer.install_all(result.roots)
        zlib_installs = [n for n in report.built if n == "zlib"]
        assert len(zlib_installs) == 1, "shared zlib built once"


class TestInstallFailuresAreErrors:
    """Install failures are the user's cache or store problem, not a bug:
    one ``error:`` line and exit 1, never the crash-report path."""

    def _assert_plain_error(self, rc, capsys, telemetry):
        err = capsys.readouterr().err
        assert rc == 1, err
        assert err.startswith("error: "), err
        assert "internal error" not in err
        assert list(telemetry.glob("crash-*.json")) == []
        return err

    def test_corrupt_bundle(self, pipeline, tmp_path, capsys):
        from repro.cli import main

        spec, installer, cache = pipeline
        (cache.blobs / f"{spec['zlib'].dag_hash()}.bundle").write_text("{torn")
        telemetry = tmp_path / "telemetry"
        rc = main([
            "--repo", "mock", "install", "example@1.1.0 ^mpich@3.4.3",
            "--store", str(tmp_path / "s3"), "--cache", str(tmp_path / "cache"),
            "--telemetry-dir", str(telemetry),
        ])
        err = self._assert_plain_error(rc, capsys, telemetry)
        assert "corrupt bundle" in err

    @pytest.mark.parametrize("verb", ["install", "env install"])
    def test_missing_build_spec_binary(self, pipeline, tmp_path, capsys, verb):
        from repro.cli import main

        spec, installer, cache = pipeline
        # still indexed, so the solver splices it; its binary is gone
        (cache.blobs / f"{spec.dag_hash()}.bundle").unlink()
        telemetry = tmp_path / "telemetry"
        common = [
            "--store", str(tmp_path / "s3"), "--cache", str(tmp_path / "cache"),
            "--telemetry-dir", str(telemetry),
        ]
        if verb == "install":
            rc = main(["--repo", "mock", "install", "--splice",
                       "example@1.1.0 ^mpiabi", *common])
        else:
            env_dir = str(tmp_path / "env")
            assert main(["--repo", "mock", "env", "create",
                         "example@1.1.0 ^mpiabi", "--env", env_dir,
                         "--splice"]) == 0
            capsys.readouterr()
            rc = main(["--repo", "mock", "env", "install", "--env", env_dir,
                       *common])
        err = self._assert_plain_error(rc, capsys, telemetry)
        assert "no binary for build spec example" in err

    @pytest.mark.parametrize("fetch_jobs", ["1", "2"])
    def test_abi_refused_rewire(self, repo, tmp_path, capsys, monkeypatch,
                                fetch_jobs):
        """openmpi declares an unsound ``can_splice("mpich@3.4.3")``: the
        solver splices it in and the rewirer refuses the binary.  That is
        the declaration's fault, reported the same at every width."""
        from repro.cli import main
        from repro.package.directives import CanSpliceDecl
        from repro.spec import parse_one

        openmpi = repo.get("openmpi")
        openmpi.can_splice_decls = openmpi.can_splice_decls + [
            CanSpliceDecl(target=parse_one("mpich@3.4.3"))
        ]
        monkeypatch.setattr("repro.repos.mock.make_mock_repo", lambda: repo)
        seed = Installer(tmp_path / "seed", repo)
        cache = BuildCache(tmp_path / "cache")
        for request in ("example@1.1.0 ^mpich@3.4.3", "openmpi"):
            spec = Concretizer(repo).solve([request]).roots[0]
            seed.install(spec)
            seed.push_to_cache(cache, spec)
        telemetry = tmp_path / "telemetry"
        rc = main([
            "--repo", "mock", "install", "--splice", "example@1.1.0 ^openmpi",
            "--store", str(tmp_path / "s3"), "--cache", str(tmp_path / "cache"),
            "--fetch-jobs", fetch_jobs, "--telemetry-dir", str(telemetry),
        ])
        err = self._assert_plain_error(rc, capsys, telemetry)
        assert len(err.splitlines()) == 1, err
        assert "ABI incompatible" in err
