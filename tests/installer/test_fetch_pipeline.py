"""Pipelined binary installs: --fetch-jobs overlap, correctness, errors."""

import time

import pytest

import repro.obs as obs
from repro.buildcache import BuildCache, BuildCacheError, SigningKey, TrustStore
from repro.cli import main
from repro.concretize import Concretizer
from repro.installer import InstallError, Installer
from repro.obs import metrics, trace
from repro.repos.mock import make_mock_repo


@pytest.fixture()
def repo():
    return make_mock_repo()


@pytest.fixture()
def spec(repo):
    return Concretizer(repo).solve(["example@1.1.0 ^mpich@3.4.3"]).roots[0]


def make_cache(repo, spec, tmp_path, signing_key=None):
    """A populated buildcache holding ``spec``'s full stack."""
    source = Installer(tmp_path / "seed", repo)
    source.install(spec)
    cache = BuildCache(tmp_path / "cache", signing_key=signing_key)
    source.push_to_cache(cache, spec)
    cache.save_index()
    return cache


def tree_digest(root) -> dict:
    """Relative path -> content with the store root normalized out.

    Store roots of equal length produce identically-padded relocations,
    so after swapping the root for a fixed marker the trees from a
    serial and a pipelined install must match byte for byte.
    """
    digest = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        text = path.read_text().replace(str(root), "@ROOT@")
        digest[str(path.relative_to(root))] = text
    return digest


class TestPipelinedExtract:
    def test_all_nodes_extracted(self, repo, spec, tmp_path):
        cache = make_cache(repo, spec, tmp_path)
        target = Installer(tmp_path / "store", repo, caches=[cache], fetch_jobs=4)
        report = target.install(spec)
        assert not report.built
        assert len(report.extracted) == 4

    def test_identical_tree_vs_serial(self, repo, spec, tmp_path):
        cache = make_cache(repo, spec, tmp_path)
        # equal-length store names: padding-relocated bytes stay comparable
        serial = Installer(tmp_path / "s1", repo, caches=[cache], fetch_jobs=1)
        serial.install(spec)
        piped = Installer(tmp_path / "s4", repo, caches=[cache], fetch_jobs=4)
        piped.install(spec)
        assert tree_digest(tmp_path / "s1") == tree_digest(tmp_path / "s4")

    def test_fetch_overlap_observed(self, repo, spec, tmp_path, monkeypatch):
        cache = make_cache(repo, spec, tmp_path)
        # stretch each fetch so worker overlap is deterministic, not a race
        original_fetch = cache.fetch

        def slow_fetch(h):
            time.sleep(0.02)
            return original_fetch(h)

        monkeypatch.setattr(cache, "fetch", slow_fetch)
        obs.reset()
        target = Installer(tmp_path / "store", repo, caches=[cache], fetch_jobs=4)
        target.install(spec)
        stats = trace.phase_stats()
        assert stats["installer.fetch"]["count"] == 4
        occupancy = metrics.histogram("installer.fetch_occupancy").values
        assert len(occupancy) == 4
        assert max(occupancy) > 1, occupancy

    def test_wall_clock_win_over_serial_fetch(self, repo, spec, tmp_path, monkeypatch):
        """With per-fetch latency dominating, 4 fetch workers beat 1."""
        cache = make_cache(repo, spec, tmp_path)
        original_fetch = cache.fetch
        delay = 0.05

        def slow_fetch(h):
            time.sleep(delay)
            return original_fetch(h)

        monkeypatch.setattr(cache, "fetch", slow_fetch)

        def timed(where, fetch_jobs):
            installer = Installer(
                tmp_path / where, repo, caches=[cache], fetch_jobs=fetch_jobs
            )
            start = time.perf_counter()
            installer.install(spec)
            return time.perf_counter() - start

        serial = timed("t1", 1)
        piped = timed("t4", 4)
        assert piped < serial, (serial, piped)

    def test_prefetch_skips_already_installed(self, repo, spec, tmp_path):
        cache = make_cache(repo, spec, tmp_path)
        target = Installer(tmp_path / "store", repo, caches=[cache], fetch_jobs=2)
        target.install(spec)
        obs.reset()
        report = target.install(spec)
        assert len(report.already) == 4
        assert "installer.fetch" not in trace.phase_stats()


class TestFetchErrors:
    def test_tampered_entry_fails_the_install(self, repo, spec, tmp_path):
        key = SigningKey.generate("publisher")
        cache = make_cache(repo, spec, tmp_path, signing_key=key)
        bundle = cache.blobs / f"{spec.dag_hash()}.bundle"
        data = bytearray(bundle.read_bytes())
        data[-2] ^= 0x01  # one payload byte of libexample.so
        bundle.write_bytes(bytes(data))
        trust = TrustStore()
        trust.trust(key)
        consumer = BuildCache(tmp_path / "cache", trust=trust)
        target = Installer(
            tmp_path / "store", repo, caches=[consumer], fetch_jobs=4
        )
        with pytest.raises(InstallError, match="tampered"):
            target.install(spec)

    @pytest.mark.parametrize("fetch_jobs", [1, 4])
    def test_tampered_bundle_fails_the_node(self, repo, spec, tmp_path,
                                            fetch_jobs):
        key = SigningKey.generate("publisher")
        cache = make_cache(repo, spec, tmp_path, signing_key=key)
        bundle = cache.blobs / f"{spec['zlib'].dag_hash()}.bundle"
        data = bytearray(bundle.read_bytes())
        data[len(data) // 3] ^= 0x01
        bundle.write_bytes(bytes(data))
        consumer = BuildCache(tmp_path / "cache", trust=TrustStore([key]))
        target = Installer(
            tmp_path / "store", repo, caches=[consumer], fetch_jobs=fetch_jobs
        )
        with pytest.raises((InstallError, BuildCacheError)):
            target.install(spec)
        assert target.database.get(spec["zlib"].dag_hash()) is None

    @pytest.mark.parametrize("fetch_jobs", [1, 4])
    def test_indexed_hash_without_bundle_is_a_miss(self, repo, spec, tmp_path,
                                                   fetch_jobs):
        """The index still lists zlib but its bundle is gone: the next
        cache serves it, and with no other cache it is built."""
        cache = make_cache(repo, spec, tmp_path)
        zlib = spec["zlib"].dag_hash()
        (cache.blobs / f"{zlib}.bundle").unlink()
        target = Installer(
            tmp_path / "store", repo, caches=[cache], fetch_jobs=fetch_jobs
        )
        report = target.install(spec)
        assert report.built == ["zlib"]
        assert sorted(report.extracted) == ["bzip2", "example", "mpich"]

        second = make_cache(repo, spec, tmp_path / "second")
        obs.reset()
        target = Installer(
            tmp_path / "store2", repo, caches=[cache, second],
            fetch_jobs=fetch_jobs,
        )
        report = target.install(spec)
        assert not report.built
        assert len(report.extracted) == 4
        assert metrics.counter("buildcache.fetches").value == 4

    def test_signed_pipeline_round_trip(self, repo, spec, tmp_path):
        key = SigningKey.generate("publisher")
        make_cache(repo, spec, tmp_path, signing_key=key)
        trust = TrustStore()
        trust.trust(key)
        consumer = BuildCache(tmp_path / "cache", trust=trust)
        target = Installer(
            tmp_path / "store", repo, caches=[consumer], fetch_jobs=4
        )
        report = target.install(spec)
        assert len(report.extracted) == 4


class TestCLI:
    def test_fetch_jobs_flag(self, repo, spec, tmp_path, capsys):
        make_cache(repo, spec, tmp_path)
        rc = main([
            "--repo", "mock", "install", "example@1.1.0 ^mpich@3.4.3",
            "--store", str(tmp_path / "store"),
            "--cache", str(tmp_path / "cache"),
            "--fetch-jobs", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "extracted" in out
