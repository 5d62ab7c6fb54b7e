"""Mirror-group tests: ordering, fallback, retries, the merged union
view, and the install path."""

import hashlib
import os
import shutil

import pytest

import repro.obs as obs
from repro.buildcache import (
    BuildCache,
    BuildCacheError,
    LocalFSBackend,
    MirrorGroup,
    SimulatedRemoteBackend,
    TransientBackendError,
)
from repro.cli import main
from repro.concretize import Concretizer
from repro.installer import Installer
from repro.obs import metrics
from repro.repos.mock import make_mock_repo

from .legacy_index import write_legacy_index


@pytest.fixture()
def repo():
    return make_mock_repo()


@pytest.fixture()
def spec(repo):
    return Concretizer(repo).solve(["example@1.1.0 ^mpich@3.4.3"]).roots[0]


def make_cache(repo, spec, root, name, seed_dir):
    """A populated buildcache holding ``spec``'s full stack."""
    source = Installer(seed_dir, repo)
    source.install(spec)
    cache = BuildCache(root, name=name)
    source.push_to_cache(cache, spec)
    cache.save_index()
    return cache


def sim_cache(root, name, **kwargs):
    """A cache over an existing directory wrapped as a flaky remote."""
    backend = SimulatedRemoteBackend(LocalFSBackend(root), name=name, **kwargs)
    return BuildCache(backend=backend, name=name), backend


def tree_digest(root) -> dict:
    digest = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        text = path.read_text().replace(str(root), "@ROOT@")
        digest[str(path.relative_to(root))] = text
    return digest


class TestMirrorSemantics:
    def test_first_hit_wins_ordering(self, repo, spec, tmp_path):
        """Both mirrors hold the hash; the first one serves it."""
        first = make_cache(repo, spec, tmp_path / "first", "first",
                           tmp_path / "seed")
        shutil.copytree(tmp_path / "first", tmp_path / "second")
        second = BuildCache(tmp_path / "second", name="second")
        group = MirrorGroup([first, second], backoff=0)
        obs.reset()
        payload = group.fetch(spec.dag_hash())
        assert payload.source == "first"
        assert metrics.counter("buildcache.mirror_hits.first").value == 1
        assert metrics.counter("buildcache.mirror_hits.second").value == 0

    def test_index_hit_payload_missing_falls_through(self, repo, spec, tmp_path):
        """Mirror A indexes the spec but lost the blob (the stale-mirror
        pathology): the group degrades to B and bumps the fallback
        counter."""
        make_cache(repo, spec, tmp_path / "a", "a", tmp_path / "seed")
        shutil.copytree(tmp_path / "a", tmp_path / "b")
        shutil.rmtree(tmp_path / "a" / "blobs")
        a = BuildCache(tmp_path / "a", name="a")
        b = BuildCache(tmp_path / "b", name="b")
        group = MirrorGroup([a, b], backoff=0)
        h = spec.dag_hash()
        assert h in group  # the index still advertises it
        obs.reset()
        payload = group.fetch(h)
        assert payload.source == "b"
        assert metrics.counter("buildcache.mirror_fallbacks").value > 0
        assert metrics.counter("buildcache.mirror_fallbacks.a").value > 0
        assert metrics.counter("buildcache.mirror_hits.b").value == 1

    def test_read_only_mirror_rejects_push(self, repo, spec, tmp_path):
        primary = BuildCache(
            backend=LocalFSBackend(tmp_path / "ro", writable=False),
            name="ro",
        )
        group = MirrorGroup([primary], backoff=0)
        seed = Installer(tmp_path / "seed", repo)
        seed.install(spec)
        with pytest.raises(BuildCacheError, match="read-only"):
            group.push(spec, seed.database.prefix_of(spec))

    def test_all_specs_union_dedupes_preferring_first(self, repo, spec, tmp_path):
        """A hash in both mirrors appears once; hashes unique to either
        mirror all appear."""
        first = make_cache(repo, spec, tmp_path / "first", "first",
                           tmp_path / "seed1")
        shutil.copytree(tmp_path / "first", tmp_path / "second")
        second = BuildCache(tmp_path / "second", name="second")
        # give the second mirror one extra spec the first lacks
        extra = Concretizer(repo).solve(["example@1.1.0 ^openmpi"]).roots[0]
        seed2 = Installer(tmp_path / "seed2", repo)
        seed2.install(extra)
        seed2.push_to_cache(second, extra)
        second.save_index()

        group = MirrorGroup([first, second], backoff=0)
        specs = group.all_specs()
        hashes = [s.dag_hash() for s in specs]
        assert len(hashes) == len(set(hashes)), "duplicate hash in union"
        assert set(hashes) == (
            {n.dag_hash() for n in spec.traverse()}
            | {n.dag_hash() for n in extra.traverse()}
        )
        assert len(group) == len(hashes)

    def test_push_goes_to_primary_only(self, repo, spec, tmp_path):
        primary = BuildCache(tmp_path / "primary", name="primary")
        secondary = BuildCache(tmp_path / "secondary", name="secondary")
        group = MirrorGroup([primary, secondary], backoff=0)
        seed = Installer(tmp_path / "seed", repo)
        seed.install(spec)
        for node in spec.traverse(order="post"):
            group.push(node, seed.database.prefix_of(node))
        group.save_index()
        assert len(primary) == 4
        assert len(secondary) == 0

    def test_duplicate_labels_rejected(self, tmp_path):
        a = BuildCache(tmp_path / "x" / "cache", name="same")
        b = BuildCache(tmp_path / "y" / "cache", name="same")
        with pytest.raises(BuildCacheError, match="unique"):
            MirrorGroup([a, b])

    def test_empty_group_rejected(self):
        with pytest.raises(BuildCacheError, match="at least one"):
            MirrorGroup([])


def absent_hash(i: int) -> str:
    return hashlib.sha256(f"nowhere-{i}".encode()).hexdigest()[:32]


class TestMergedView:
    def test_cold_union_reads_no_shards(self, repo, spec, tmp_path):
        """The 741 ms fix, observed at the op level: a cold group's
        union comes from one summary-sidecar read per mirror — no
        shard documents, no spec documents."""
        make_cache(repo, spec, tmp_path / "m", "m", tmp_path / "seed")
        cache, backend = sim_cache(tmp_path / "m", "remote")
        group = MirrorGroup([cache], backoff=0)
        baseline = dict(backend.op_counts)
        assert len(group) == 4
        delta = backend.op_counts.get("get", 0) - baseline.get("get", 0)
        assert delta <= 2, f"union cost {delta} reads (expected sidecar only)"

    def test_negative_lookups_cost_zero_remote_ops(self, repo, spec, tmp_path):
        """Acceptance criterion: once the view is warm, misses (and
        hits) against the union are pure set lookups."""
        make_cache(repo, spec, tmp_path / "m", "m", tmp_path / "seed")
        cache, backend = sim_cache(tmp_path / "m", "remote")
        group = MirrorGroup([cache], backoff=0)
        assert len(group) == 4  # warm the view
        snapshot = dict(backend.op_counts)
        for i in range(100):
            assert absent_hash(i) not in group
        assert spec.dag_hash() in group
        assert len(group) == 4
        assert list(group) == sorted(group.spec_hash_set())
        assert backend.op_counts == snapshot, "membership hit the backend"

    def test_unchanged_mirror_never_rewalked(self, repo, spec, tmp_path):
        """A push to the primary moves only the primary's token: the
        secondary's hash set is reused without a single backend op."""
        make_cache(repo, spec, tmp_path / "pub", "pub", tmp_path / "seed")
        remote, backend = sim_cache(tmp_path / "pub", "remote")
        primary = BuildCache(tmp_path / "scratch", name="scratch")
        group = MirrorGroup([primary, remote], backoff=0)
        assert len(group) == 4  # warm
        snapshot = dict(backend.op_counts)

        extra = Concretizer(repo).solve(["example@1.1.0 ^openmpi"]).roots[0]
        seed = Installer(tmp_path / "seed2", repo)
        seed.install(extra)
        for node in extra.traverse(order="post"):
            group.push(node, seed.database.prefix_of(node))
        expected = (
            {n.dag_hash() for n in spec.traverse()}
            | {n.dag_hash() for n in extra.traverse()}
        )
        assert set(group) == expected
        assert backend.op_counts == snapshot, "secondary was re-walked"

    def test_len_correct_after_push_without_save_index(self, repo, spec, tmp_path):
        """The satellite regression: a push that has not been
        ``save_index``-ed must already show up in ``len(group)`` —
        the journal overlay is part of the primary's state token."""
        full = make_cache(repo, spec, tmp_path / "full", "full",
                          tmp_path / "seed")
        primary = BuildCache(tmp_path / "primary", name="primary")
        group = MirrorGroup([primary, full], backoff=0)
        assert len(group) == 4

        extra = Concretizer(repo).solve(["example@1.1.0 ^openmpi"]).roots[0]
        seed = Installer(tmp_path / "seed2", repo)
        seed.install(extra)
        for node in extra.traverse(order="post"):
            group.push(node, seed.database.prefix_of(node))
        expected = (
            {n.dag_hash() for n in spec.traverse()}
            | {n.dag_hash() for n in extra.traverse()}
        )
        # no save_index yet: the union must already be exact
        assert len(group) == len(expected)
        assert set(group) == expected
        group.save_index()
        assert len(group) == len(expected)

    def test_refresh_picks_up_another_writers_save(self, repo, spec, tmp_path):
        """A foreign process saves into a mirror: ``group.refresh()``
        delta-reloads it and the union catches up without a reopen."""
        make_cache(repo, spec, tmp_path / "m", "m", tmp_path / "seed")
        reader = BuildCache(tmp_path / "m", name="m")
        group = MirrorGroup([reader], backoff=0)
        assert len(group) == 4

        writer = BuildCache(tmp_path / "m", name="writer")
        extra = Concretizer(repo).solve(["example@1.1.0 ^openmpi"]).roots[0]
        seed = Installer(tmp_path / "seed2", repo)
        seed.install(extra)
        seed.push_to_cache(writer, extra)
        writer.save_index()

        assert len(group) == 4  # stale until asked to refresh
        group.refresh()
        expected = (
            {n.dag_hash() for n in spec.traverse()}
            | {n.dag_hash() for n in extra.traverse()}
        )
        assert set(group) == expected

    def test_degraded_mirror_recovers_on_next_view(self, repo, spec, tmp_path):
        """Enumeration failure leaves the mirror out of the view (the
        union degrades, never lies); once the backend heals, the next
        lookup re-attempts and the union is whole again."""
        make_cache(repo, spec, tmp_path / "m", "m", tmp_path / "seed")
        cache, backend = sim_cache(tmp_path / "m", "flaky")
        group = MirrorGroup([cache], retries=0, backoff=0)
        backend.fail("get", times=50)
        obs.reset()
        assert absent_hash(0) not in group  # degraded, not an error
        assert metrics.counter("buildcache.mirror_fallbacks.flaky").value > 0
        backend._faults.clear()  # the remote heals
        assert len(group) == 4
        assert spec.dag_hash() in group


class TestRetryBackoffClock:
    """The ``_with_retries`` audit, pinned with a fake clock."""

    def _group(self, tmp_path, retries):
        sleeps = []
        cache = BuildCache(tmp_path / "m", name="m")
        group = MirrorGroup(
            [cache], retries=retries, backoff=0.05, sleep=sleeps.append
        )
        return group, cache, sleeps

    def test_backoff_doubles_between_attempts(self, tmp_path):
        group, cache, sleeps = self._group(tmp_path, retries=3)
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) <= 2:
                raise TransientBackendError("timeout")
            return "ok"

        obs.reset()
        assert group._with_retries(cache, flaky) == "ok"
        assert sleeps == [0.05, 0.1]
        assert metrics.counter("buildcache.mirror_retries.m").value == 2

    def test_exhaustion_sleeps_and_counts_retries_not_attempts(self, tmp_path):
        """No sleep after the final failed attempt, and the retry
        counter counts *retries* (2), not attempts (3) — exhaustion is
        accounted by the caller's fallback counter, not double-counted
        here."""
        group, cache, sleeps = self._group(tmp_path, retries=2)
        calls = []

        def down():
            calls.append(1)
            raise TransientBackendError("down")

        obs.reset()
        with pytest.raises(TransientBackendError):
            group._with_retries(cache, down)
        assert len(calls) == 3  # retries + 1 attempts, bounded
        assert sleeps == [0.05, 0.1], "slept after the final failure"
        assert metrics.counter("buildcache.mirror_retries.m").value == 2
        assert metrics.counter("buildcache.mirror_retries").value == 2

    def test_zero_retries_fails_fast_without_sleeping(self, tmp_path):
        group, cache, sleeps = self._group(tmp_path, retries=0)
        obs.reset()
        with pytest.raises(TransientBackendError):
            group._with_retries(
                cache, lambda: (_ for _ in ()).throw(TransientBackendError("x"))
            )
        assert sleeps == []
        assert metrics.counter("buildcache.mirror_retries.m").value == 0

    def test_fetch_exhaustion_counts_fallback_once(self, repo, spec, tmp_path):
        make_cache(repo, spec, tmp_path / "m", "seedcache", tmp_path / "seed")
        cache, backend = sim_cache(tmp_path / "m", "flaky")
        group = MirrorGroup([cache], retries=1, backoff=0)
        group._merged_view()  # warm the view before injecting faults
        backend.fail("get", times=50)
        obs.reset()
        with pytest.raises(BuildCacheError, match="no mirror"):
            group.fetch(spec.dag_hash())
        assert metrics.counter("buildcache.mirror_fallbacks.flaky").value == 1
        assert metrics.counter("buildcache.mirror_retries.flaky").value == 1


class TestRetryAndDegrade:
    def test_transient_fault_is_retried_on_same_mirror(self, repo, spec, tmp_path):
        make_cache(repo, spec, tmp_path / "m", "seedcache", tmp_path / "seed")
        cache, backend = sim_cache(tmp_path / "m", "flaky")
        group = MirrorGroup([cache], retries=2, backoff=0)
        h = spec.dag_hash()
        backend.fail("get", times=1)  # first meta read times out
        obs.reset()
        payload = group.fetch(h)
        assert payload.source == "flaky"
        assert metrics.counter("buildcache.mirror_retries.flaky").value >= 1
        assert metrics.counter("buildcache.mirror_hits.flaky").value == 1

    def test_exhausted_retries_degrade_to_next_mirror(self, repo, spec, tmp_path):
        make_cache(repo, spec, tmp_path / "m", "seedcache", tmp_path / "seed")
        flaky, backend = sim_cache(tmp_path / "m", "flaky")
        shutil.copytree(tmp_path / "m", tmp_path / "good")
        good = BuildCache(tmp_path / "good", name="good")
        group = MirrorGroup([flaky, good], retries=1, backoff=0)
        backend.fail("get", times=50)  # more faults than retries
        obs.reset()
        payload = group.fetch(spec.dag_hash())
        assert payload.source == "good"
        assert metrics.counter("buildcache.mirror_fallbacks.flaky").value > 0

    def test_every_mirror_failing_raises(self, repo, spec, tmp_path):
        make_cache(repo, spec, tmp_path / "m", "seedcache", tmp_path / "seed")
        cache, backend = sim_cache(tmp_path / "m", "flaky")
        group = MirrorGroup([cache], retries=0, backoff=0)
        backend.fail("get", times=50)
        with pytest.raises(BuildCacheError, match="no mirror"):
            group.fetch(spec.dag_hash())

    def test_unknown_hash_raises_after_all_misses(self, repo, spec, tmp_path):
        cache = make_cache(repo, spec, tmp_path / "m", "m", tmp_path / "seed")
        group = MirrorGroup([cache], backoff=0)
        with pytest.raises(BuildCacheError, match="no mirror"):
            group.fetch("deadbeef" * 4)


class TestMirrorInstallPath:
    def test_install_through_flaky_two_mirror_group(self, repo, spec, tmp_path):
        """The CI mirror-smoke scenario: a primary missing its payloads
        plus a flaky-but-complete secondary still installs everything,
        through the pipelined fetch path."""
        make_cache(repo, spec, tmp_path / "full", "full", tmp_path / "seed")
        shutil.copytree(tmp_path / "full", tmp_path / "empty")
        shutil.rmtree(tmp_path / "empty" / "blobs")
        primary = BuildCache(tmp_path / "empty", name="primary")
        secondary, backend = sim_cache(tmp_path / "full", "secondary")
        backend.fail("get", times=1)  # one transient timeout mid-run
        group = MirrorGroup([primary, secondary], retries=2, backoff=0)
        obs.reset()
        target = Installer(tmp_path / "store", repo, caches=[group],
                           fetch_jobs=2)
        report = target.install(spec)
        assert not report.built
        assert len(report.extracted) == 4
        assert metrics.counter("buildcache.mirror_fallbacks").value > 0
        assert metrics.counter("buildcache.mirror_hits.secondary").value == 4

    def test_byte_identical_to_single_cache_install(self, repo, spec, tmp_path):
        """The acceptance criterion: payload only in mirror B installs a
        byte-identical tree to the single-cache path."""
        make_cache(repo, spec, tmp_path / "B", "B", tmp_path / "seed")
        shutil.copytree(tmp_path / "B", tmp_path / "A")
        shutil.rmtree(tmp_path / "A" / "blobs")
        a = BuildCache(tmp_path / "A", name="A")
        b = BuildCache(tmp_path / "B", name="B")
        group = MirrorGroup([a, b], backoff=0)

        # equal-length store names keep padding-relocation comparable
        single = Installer(tmp_path / "s1", repo,
                           caches=[BuildCache(tmp_path / "B", name="B1")])
        single.install(spec)
        obs.reset()
        mirrored = Installer(tmp_path / "s2", repo, caches=[group],
                             fetch_jobs=2)
        mirrored.install(spec)
        assert tree_digest(tmp_path / "s1") == tree_digest(tmp_path / "s2")
        assert metrics.counter("buildcache.mirror_fallbacks").value > 0

    def test_install_identical_with_summaries_vs_write_v2(
        self, repo, spec, tmp_path
    ):
        """Format parity: a two-mirror install through v3 summaries and
        through digest-less v2 indexes produces byte-identical trees —
        the summary layer changes lookup cost, never results."""
        def build_group(tag):
            make_cache(repo, spec, tmp_path / f"B{tag}", "B",
                       tmp_path / f"seed{tag}")
            if tag == "2":
                write_legacy_index(tmp_path / f"B{tag}", 2)
            shutil.copytree(tmp_path / f"B{tag}", tmp_path / f"A{tag}")
            shutil.rmtree(tmp_path / f"A{tag}" / "blobs")
            a = BuildCache(tmp_path / f"A{tag}", name="A")
            b = BuildCache(tmp_path / f"B{tag}", name="B")
            return MirrorGroup([a, b], backoff=0)

        group3 = build_group("3")
        Installer(tmp_path / "s3", repo, caches=[group3], fetch_jobs=2
                  ).install(spec)

        group2 = build_group("2")
        assert not (tmp_path / "B2" / "index.sum.json").exists()
        Installer(tmp_path / "s2", repo, caches=[group2], fetch_jobs=2
                  ).install(spec)

        assert tree_digest(tmp_path / "s3") == tree_digest(tmp_path / "s2")

    def test_concretizer_reuses_from_union(self, repo, spec, tmp_path):
        """Specs only indexed by the secondary mirror still count as
        reusable for concretization."""
        cache = make_cache(repo, spec, tmp_path / "full", "full",
                           tmp_path / "seed")
        empty = BuildCache(tmp_path / "empty", name="empty")
        group = MirrorGroup([empty, cache], backoff=0)
        result = Concretizer(
            repo, reusable_specs=group.all_specs()
        ).solve(["example@1.1.0 ^mpich@3.4.3"])
        assert result.roots[0].dag_hash() == spec.dag_hash()


class TestMirrorCLI:
    def test_install_with_mirror_flags(self, repo, spec, tmp_path, capsys):
        make_cache(repo, spec, tmp_path / "B", "B", tmp_path / "seed")
        shutil.copytree(tmp_path / "B", tmp_path / "A")
        shutil.rmtree(tmp_path / "A" / "blobs")
        rc = main([
            "--repo", "mock", "install", "example@1.1.0 ^mpich@3.4.3",
            "--store", str(tmp_path / "store"),
            "--mirror", str(tmp_path / "A"),
            "--mirror", str(tmp_path / "B"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "extracted=4" in out

    def test_mirrors_file(self, repo, spec, tmp_path, capsys):
        make_cache(repo, spec, tmp_path / "B", "B", tmp_path / "seed")
        mirrors = tmp_path / "mirrors.txt"
        mirrors.write_text(
            "# the public mirror, read-only\n"
            f"pub={tmp_path / 'B'}:ro\n"
        )
        rc = main([
            "--repo", "mock", "install", "example@1.1.0 ^mpich@3.4.3",
            "--store", str(tmp_path / "store"),
            "--cache", str(tmp_path / "scratch"),
            "--mirrors-file", str(mirrors),
        ])
        assert rc == 0
        assert "extracted=4" in capsys.readouterr().out

    def test_missing_mirrors_file_exits_2(self, tmp_path, capsys):
        rc = main([
            "--repo", "mock", "install", "example",
            "--store", str(tmp_path / "store"),
            "--mirrors-file", str(tmp_path / "does-not-exist.txt"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: cannot read mirrors file" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_unreadable_mirrors_file_exits_2(self, tmp_path, capsys):
        unreadable = tmp_path / "mirrors.txt"
        unreadable.write_text("pub=/somewhere\n")
        unreadable.chmod(0)
        if os.access(unreadable, os.R_OK):
            pytest.skip("running as a user that ignores file modes")
        try:
            rc = main([
                "--repo", "mock", "install", "example",
                "--store", str(tmp_path / "store"),
                "--mirrors-file", str(unreadable),
            ])
        finally:
            unreadable.chmod(0o644)
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: cannot read mirrors file" in err
        assert "Traceback" not in err

    def test_duplicate_explicit_labels_exit_2(self, tmp_path, capsys):
        rc = main([
            "--repo", "mock", "install", "example",
            "--store", str(tmp_path / "store"),
            "--mirror", f"pub={tmp_path / 'a'}",
            "--mirror", f"pub={tmp_path / 'b'}",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: duplicate mirror label 'pub'" in err
        assert "Traceback" not in err

    def test_duplicate_labels_in_mirrors_file_exit_2(self, tmp_path, capsys):
        mirrors = tmp_path / "mirrors.txt"
        mirrors.write_text(
            f"pub={tmp_path / 'a'}\n"
            f"pub={tmp_path / 'b'}:ro\n"
        )
        rc = main([
            "--repo", "mock", "install", "example",
            "--store", str(tmp_path / "store"),
            "--mirrors-file", str(mirrors),
        ])
        assert rc == 2
        assert "duplicate mirror label 'pub'" in capsys.readouterr().err

    def test_derived_basename_collision_is_uniquified_not_fatal(
        self, repo, spec, tmp_path
    ):
        """Two mirrors whose *directories* are both named ``cache`` are
        legitimate — only explicit NAME= duplicates are user error."""
        make_cache(repo, spec, tmp_path / "x" / "cache", "m", tmp_path / "seed")
        shutil.copytree(tmp_path / "x", tmp_path / "y")
        rc = main([
            "--repo", "mock", "install", "example@1.1.0 ^mpich@3.4.3",
            "--store", str(tmp_path / "store"),
            "--mirror", str(tmp_path / "x" / "cache"),
            "--mirror", str(tmp_path / "y" / "cache"),
        ])
        assert rc == 0

    def test_corrupt_index_manifest_exits_2(self, tmp_path, capsys):
        corrupt = tmp_path / "corrupt"
        corrupt.mkdir()
        (corrupt / "index.json").write_text("{not json")
        rc = main([
            "--repo", "mock", "install", "example",
            "--store", str(tmp_path / "store"),
            "--mirror", f"bad={corrupt}",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: cannot open mirror bad" in err
        assert "corrupt buildcache index" in err
        assert "Traceback" not in err

    def test_profile_shows_mirror_counters(self, repo, spec, tmp_path, capsys):
        make_cache(repo, spec, tmp_path / "B", "B", tmp_path / "seed")
        shutil.copytree(tmp_path / "B", tmp_path / "A")
        shutil.rmtree(tmp_path / "A" / "blobs")
        obs.reset()
        rc = main([
            "--repo", "mock", "install", "example@1.1.0 ^mpich@3.4.3",
            "--store", str(tmp_path / "store"),
            "--mirror", str(tmp_path / "A"),
            "--mirror", str(tmp_path / "B"),
            "--profile",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "buildcache.mirror_fallbacks" in out
        assert "buildcache.mirror_hits.B" in out
