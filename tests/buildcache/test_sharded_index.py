"""Sharded index tests: lazy shard loads, journal durability, migration."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.obs as obs
from repro.buildcache import (
    BuildCache,
    BuildCacheError,
    IndexFormatError,
    ShardedIndex,
    greedy_concretize,
)
from repro.buildcache.index import SHARD_WIDTH
from repro.obs import metrics, trace
from repro.repos.mock import make_mock_repo

from .legacy_index import write_legacy_index


@pytest.fixture(scope="module")
def repo():
    return make_mock_repo()


@pytest.fixture()
def zlib(repo):
    return greedy_concretize(repo, "zlib", include_build_deps=False)


def fake_doc(i: int) -> dict:
    """A fabricated spec document under a well-spread fake hash."""
    import hashlib

    h = hashlib.sha256(f"spec-{i}".encode()).hexdigest()[:32]
    return h, {"root": h, "nodes": [{"name": f"pkg{i}", "hash": h}]}


def populate(root: Path, count: int) -> dict:
    """Push ``count`` fabricated spec documents straight into an index."""
    index = ShardedIndex(root)
    docs = {}
    for i in range(count):
        h, doc = fake_doc(i)
        docs[h] = doc
        index.record_push({h: doc}, {}, {})
    index.save()
    return docs


class TestShardLayout:
    def test_manifest_and_shards_on_disk(self, tmp_path):
        docs = populate(tmp_path, 50)
        manifest = json.loads((tmp_path / "index.json").read_text())
        assert manifest["version"] == 3
        assert manifest["shard_width"] == SHARD_WIDTH
        shard_files = sorted((tmp_path / "index.d").glob("*.json"))
        assert shard_files, "no shard files written"
        assert set(manifest["shards"]) == {p.stem for p in shard_files}
        # every entry lives in the shard of its own hash prefix
        for path in shard_files:
            doc = json.loads(path.read_text())
            for h in doc["specs"]:
                assert h[:SHARD_WIDTH] == path.stem
        assert sum(e["specs"] for e in manifest["shards"].values()) == len(docs)

    def test_single_lookup_parses_one_shard(self, tmp_path):
        docs = populate(tmp_path, 200)
        some_hash = sorted(docs)[17]
        obs.reset()
        index = ShardedIndex(tmp_path)
        assert index.get_spec(some_hash) == docs[some_hash]
        stats = trace.phase_stats()
        assert stats["buildcache.shard_load"]["count"] == 1

    def test_len_uses_manifest_counts_without_parsing(self, tmp_path):
        populate(tmp_path, 200)
        obs.reset()
        index = ShardedIndex(tmp_path)
        assert index.spec_count() == 200
        assert "buildcache.shard_load" not in trace.phase_stats()

    def test_enumeration_loads_all_shards(self, tmp_path):
        docs = populate(tmp_path, 60)
        index = ShardedIndex(tmp_path)
        assert sorted(index.spec_hashes()) == sorted(docs)

    def test_incremental_save_rewrites_only_dirty_shards(self, tmp_path):
        populate(tmp_path, 200)
        index = ShardedIndex(tmp_path)
        h, doc = fake_doc(100000)
        obs.reset()
        index.record_push({h: doc}, {}, {})
        index.save()
        stats = trace.phase_stats()
        # one dirty shard (the pushed hash's) is folded and rewritten;
        # a monolithic index would have rewritten all 200 specs
        assert stats["buildcache.shard_save"]["count"] == 1
        assert ShardedIndex(tmp_path).get_spec(h) == doc

    def test_corrupt_shard_is_diagnosed(self, tmp_path):
        docs = populate(tmp_path, 20)
        some_hash = sorted(docs)[0]
        shard_path = tmp_path / "index.d" / f"{some_hash[:SHARD_WIDTH]}.json"
        shard_path.write_text("{torn")
        index = ShardedIndex(tmp_path)
        with pytest.raises(IndexFormatError, match="corrupt buildcache index shard"):
            index.get_spec(some_hash)


class TestJournal:
    def test_push_journal_replayed_on_open(self, tmp_path):
        index = ShardedIndex(tmp_path)
        h, doc = fake_doc(1)
        index.record_push({h: doc}, {}, {})
        # no save(): the journal alone must carry the push
        reopened = ShardedIndex(tmp_path)
        assert reopened.get_spec(h) == doc
        assert reopened.journal_entries == 1

    def test_save_folds_and_truncates_journal(self, tmp_path):
        index = ShardedIndex(tmp_path)
        h, doc = fake_doc(2)
        index.record_push({h: doc}, {}, {})
        assert (tmp_path / "journal.jsonl").exists()
        index.save()
        assert not (tmp_path / "journal.jsonl").exists()
        assert ShardedIndex(tmp_path).get_spec(h) == doc

    def test_torn_final_journal_line_is_tolerated(self, tmp_path):
        index = ShardedIndex(tmp_path)
        h, doc = fake_doc(3)
        index.record_push({h: doc}, {}, {})
        with open(tmp_path / "journal.jsonl", "a") as fh:
            fh.write('{"specs": {"dead')  # the crash artifact
        reopened = ShardedIndex(tmp_path)
        assert reopened.get_spec(h) == doc

    def test_journal_overlay_wins_over_stale_shard(self, tmp_path):
        index = ShardedIndex(tmp_path)
        h, doc = fake_doc(4)
        index.record_push({h: doc}, {}, {})
        index.save()
        updated = dict(doc, nodes=[{"name": "pkg4-v2", "hash": h}])
        index2 = ShardedIndex(tmp_path)
        index2.record_push({h: updated}, {}, {})
        # lazy load of the on-disk shard must keep the journaled update
        assert ShardedIndex(tmp_path).get_spec(h) == updated

    def test_push_survives_hard_process_kill(self, zlib, tmp_path):
        """The regression test for the old durability gap: the pushing
        process dies between push() and save_index(); the spec must
        still be indexed on reopen."""
        src = tmp_path / "build" / "zlib"
        (src / "lib").mkdir(parents=True)
        (src / "lib" / "libzlib.so").write_text("payload")
        script = f"""
import os
from pathlib import Path
from repro.buildcache import BuildCache, greedy_concretize
from repro.repos.mock import make_mock_repo

spec = greedy_concretize(make_mock_repo(), "zlib", include_build_deps=False)
cache = BuildCache({str(tmp_path / "cache")!r})
cache.push(spec, {str(src)!r})
os._exit(9)  # die before save_index(): no atexit, no flush, nothing
"""
        env = dict(os.environ)
        src_dir = Path(__file__).resolve().parents[2] / "src"
        env["PYTHONPATH"] = f"{src_dir}:{env.get('PYTHONPATH', '')}"
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 9, proc.stderr
        reopened = BuildCache(tmp_path / "cache")
        assert len(reopened) == 1
        assert zlib.dag_hash() in reopened
        (restored,) = reopened.all_specs()
        assert restored.dag_hash() == zlib.dag_hash()
        assert reopened.has_payload(zlib.dag_hash())

    def test_save_index_survives_hard_process_kill(self, zlib, tmp_path):
        """save_index() writes shards + manifest through the fsyncing
        helper: a process killed immediately after must leave a fully
        readable index with the journal already folded — never an empty
        or torn shard (the old rename-without-fsync gap)."""
        src = tmp_path / "build" / "zlib"
        (src / "lib").mkdir(parents=True)
        (src / "lib" / "libzlib.so").write_text("payload")
        script = f"""
import os
from pathlib import Path
from repro.buildcache import BuildCache, greedy_concretize
from repro.repos.mock import make_mock_repo

spec = greedy_concretize(make_mock_repo(), "zlib", include_build_deps=False)
cache = BuildCache({str(tmp_path / "cache")!r})
cache.push(spec, {str(src)!r})
cache.save_index()
os._exit(9)  # die right after the save: no atexit, no flush, nothing
"""
        env = dict(os.environ)
        src_dir = Path(__file__).resolve().parents[2] / "src"
        env["PYTHONPATH"] = f"{src_dir}:{env.get('PYTHONPATH', '')}"
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 9, proc.stderr
        # the journal was folded into shards and truncated by the save
        assert not (tmp_path / "cache" / "journal.jsonl").exists()
        reopened = BuildCache(tmp_path / "cache")
        assert reopened._index.journal_entries == 0
        assert len(reopened) == 1
        (restored,) = reopened.all_specs()
        assert restored.dag_hash() == zlib.dag_hash()


class TestV1Migration:
    def v1_document(self, count=30):
        specs = {}
        for i in range(count):
            h, doc = fake_doc(i)
            specs[h] = doc
        return {
            "version": 1,
            "specs": specs,
            "build_specs": {},
            "external_prefixes": {},
        }

    def test_v1_reads_transparently(self, tmp_path):
        doc = self.v1_document()
        (tmp_path / "index.json").write_text(json.dumps(doc))
        index = ShardedIndex(tmp_path)
        assert index.spec_count() == 30
        for h, spec_doc in doc["specs"].items():
            assert index.get_spec(h) == spec_doc

    def test_v1_migrates_to_sharded_on_save(self, tmp_path):
        (tmp_path / "index.json").write_text(json.dumps(self.v1_document()))
        index = ShardedIndex(tmp_path)
        index.save()
        manifest = json.loads((tmp_path / "index.json").read_text())
        assert manifest["version"] == 3
        assert (tmp_path / "index.d").is_dir()
        assert ShardedIndex(tmp_path).spec_count() == 30
        assert metrics.counter("buildcache.v1_migrations").value > 0

    def test_v1_external_prefixes_survive_migration(self, tmp_path):
        doc = self.v1_document(5)
        node_hash = "ab" + "0" * 30
        doc["external_prefixes"][node_hash] = "/opt/cray/pe/mpich"
        (tmp_path / "index.json").write_text(json.dumps(doc))
        index = ShardedIndex(tmp_path)
        index.save()
        assert (
            ShardedIndex(tmp_path).external_prefix(node_hash)
            == "/opt/cray/pe/mpich"
        )

    def test_unsupported_version_refused(self, tmp_path):
        (tmp_path / "index.json").write_text(json.dumps({"version": 99}))
        with pytest.raises(BuildCacheError, match="version"):
            ShardedIndex(tmp_path)

    def test_v1_monolith_round_trips(self, tmp_path):
        """A saved index rewritten as a v1 monolith reads back, and the
        next save migrates it to v3."""
        index = ShardedIndex(tmp_path)
        h, doc = fake_doc(7)
        index.record_push({h: doc}, {}, {})
        index.save()
        write_legacy_index(tmp_path, 1)
        on_disk = json.loads((tmp_path / "index.json").read_text())
        assert on_disk["version"] == 1
        assert h in on_disk["specs"]
        reopened = ShardedIndex(tmp_path)
        assert reopened.get_spec(h) == doc
        reopened.save()  # and back to the sharded format
        assert json.loads((tmp_path / "index.json").read_text())["version"] == 3
        assert ShardedIndex(tmp_path).get_spec(h) == doc


class TestBuildCacheIntegration:
    def test_cache_open_does_not_parse_shards(self, zlib, tmp_path):
        src = tmp_path / "build" / "zlib"
        (src / "lib").mkdir(parents=True)
        (src / "lib" / "libzlib.so").write_text("payload")
        cache = BuildCache(tmp_path / "cache")
        cache.push(zlib, src)
        cache.save_index()

        obs.reset()
        reopened = BuildCache(tmp_path / "cache")
        assert "buildcache.shard_load" not in trace.phase_stats()
        assert zlib.dag_hash() in reopened
        assert trace.phase_stats()["buildcache.shard_load"]["count"] == 1


class TestContentDigest:
    """content_digest(): the ground cache's O(1) reuse-set key.

    Contract: equal spec sets give equal digests across save/reopen
    (and across directories), any content change gives a new digest,
    and the clean-manifest fast path never reads a shard.
    """

    def test_stable_across_save_and_reopen(self, tmp_path):
        populate(tmp_path, 20)
        saver = ShardedIndex(tmp_path)
        assert saver.content_digest() == ShardedIndex(tmp_path).content_digest()

    def test_clean_manifest_path_is_o1(self, tmp_path):
        populate(tmp_path, 20)
        obs.reset()
        index = ShardedIndex(tmp_path)
        digest = index.content_digest()
        assert digest.startswith("manifest:")
        assert "buildcache.shard_load" not in trace.phase_stats()

    def test_same_content_same_digest_across_directories(self, tmp_path):
        populate(tmp_path / "a", 12)
        populate(tmp_path / "b", 12)
        assert (
            ShardedIndex(tmp_path / "a").content_digest()
            == ShardedIndex(tmp_path / "b").content_digest()
        )

    def test_push_changes_digest(self, tmp_path):
        populate(tmp_path, 12)
        index = ShardedIndex(tmp_path)
        before = index.content_digest()
        h, doc = fake_doc(99)
        index.record_push({h: doc}, {}, {})
        dirty = index.content_digest()
        assert dirty != before
        assert dirty.startswith("hashes:")  # unsaved overlay: exact fallback
        index.save()
        saved = index.content_digest()
        assert saved != before
        assert ShardedIndex(tmp_path).content_digest() == saved

    def test_digest_after_save_matches_fresh_open(self, tmp_path):
        index = ShardedIndex(tmp_path)
        for i in range(8):
            h, doc = fake_doc(i)
            index.record_push({h: doc}, {}, {})
        index.save()
        assert index.content_digest() == ShardedIndex(tmp_path).content_digest()

    def test_buildcache_delegates(self, zlib, tmp_path):
        src = tmp_path / "build" / "zlib"
        (src / "lib").mkdir(parents=True)
        (src / "lib" / "libzlib.so").write_text("payload")
        cache = BuildCache(tmp_path / "cache")
        before = cache.content_digest()
        cache.push(zlib, src)
        cache.save_index()
        after = cache.content_digest()
        assert after != before
        assert BuildCache(tmp_path / "cache").content_digest() == after
