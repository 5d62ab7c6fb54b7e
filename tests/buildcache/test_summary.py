"""Summary tests: the no-false-negative contract, v3 on-disk shape,
sidecar hash gating, delta refresh, and v2 manifest reads."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.buildcache import (
    BuildCache,
    ShardedIndex,
    SortedHashSummary,
    summary_from_document,
)
from repro.buildcache.index import SUMMARY_NAME
from repro.cli import main
from repro.obs import metrics, trace

from .legacy_index import write_legacy_index


def fake_hash(i, population="s") -> str:
    return hashlib.sha256(f"{population}-{i}".encode()).hexdigest()[:32]


def fake_doc(i: int, population="s"):
    h = fake_hash(i, population)
    return h, {"root": h, "nodes": [{"name": f"pkg{i}", "hash": h}]}


def populate(root, count, population="s"):
    index = ShardedIndex(root)
    docs = {}
    for i in range(count):
        h, doc = fake_doc(i, population)
        docs[h] = doc
    index.record_push(docs, {}, {})
    index.save()
    return docs


hex_hashes = st.text(alphabet="0123456789abcdef", min_size=4, max_size=32)


class TestSummaryStructures:
    """The structural contract, hammered: a summary must NEVER claim a
    present hash is absent — that would hide cached specs."""

    @settings(max_examples=200, deadline=None)
    @given(
        members=st.sets(hex_hashes, max_size=60),
        probes=st.lists(hex_hashes, max_size=30),
    )
    def test_never_a_false_negative(self, members, probes):
        summary = SortedHashSummary(members)
        # round-trip through the on-disk document as well: the summary
        # a *different process* reads answers identically
        restored = summary_from_document(
            json.loads(json.dumps(summary.to_document()))
        )
        for h in members:
            assert summary.contains(h), "false negative (in-memory)"
            assert restored.contains(h), "false negative (round-tripped)"
        for h in probes:
            assert summary.contains(h) == restored.contains(h)
            if not summary.contains(h):
                assert h not in members

    def test_sorted_full_is_exact_and_enumerable(self):
        members = {fake_hash(i) for i in range(50)}
        summary = SortedHashSummary(members)
        assert set(summary.hashes()) == members
        assert not summary.contains(fake_hash(10_000))

    def test_unknown_document_key_is_rejected(self):
        # a corrupted key name (e.g. one flipped byte in "hashes") must
        # not silently fall back to a default — the mutation property
        # in test_storage_audit found exactly that gap
        doc = SortedHashSummary({fake_hash(1)}).to_document()
        doc[" ashes"] = doc.pop("hashes")
        with pytest.raises(Exception, match="unknown key"):
            summary_from_document(doc)


def sidecar_sha(root) -> str:
    return hashlib.sha256((root / SUMMARY_NAME).read_bytes()).hexdigest()


class TestV3OnDisk:
    def test_manifest_carries_digests_and_sidecar_matches(self, tmp_path):
        populate(tmp_path, 80)
        manifest = json.loads((tmp_path / "index.json").read_text())
        assert manifest["version"] == 3
        assert manifest["digest"]
        for entry in manifest["shards"].values():
            assert entry["digest"]
        assert manifest["summary_sha256"] == sidecar_sha(tmp_path)
        sidecar = json.loads((tmp_path / SUMMARY_NAME).read_text())
        assert set(sidecar["shards"]) == set(manifest["shards"])

    def test_negative_lookup_reads_no_shard(self, tmp_path):
        docs = populate(tmp_path, 200)
        # probe an absent hash whose shard provably exists on disk —
        # otherwise the manifest alone answers and no summary is needed
        probe = next(iter(docs))[:2] + "f" * 30
        assert probe not in docs
        obs.reset()
        index = ShardedIndex(tmp_path)
        assert not index.has_spec(probe)
        assert "buildcache.shard_load" not in trace.phase_stats()
        assert metrics.counter("buildcache.summary_hits").value == 1

    def test_positive_lookup_reads_no_shard(self, tmp_path):
        """The sidecar is exact and pinned by the manifest, so a hit is
        answered from it just like a miss."""
        docs = populate(tmp_path, 200)
        obs.reset()
        index = ShardedIndex(tmp_path)
        for h in list(docs)[:20]:
            assert index.has_spec(h)
        assert "buildcache.shard_load" not in trace.phase_stats()
        assert metrics.counter("buildcache.summary_hits").value == 20

    def test_journal_overlay_answers_before_the_summary(self, tmp_path):
        """A pushed-but-unsaved hash on an unparsed shard is found even
        though the saved sidecar does not list it."""
        docs = populate(tmp_path, 40)
        obs.reset()
        index = ShardedIndex(tmp_path)
        h, doc = fake_doc(41)
        h = next(iter(docs))[:2] + h[2:]  # land on a shard already saved
        index.record_push({h: doc}, {}, {})
        assert index.has_spec(h)
        reopened = ShardedIndex(tmp_path)  # the journal replays
        assert reopened.has_spec(h)
        assert "buildcache.shard_load" not in trace.phase_stats()

    def test_enumeration_reads_no_shard(self, tmp_path):
        docs = populate(tmp_path, 150)
        obs.reset()
        index = ShardedIndex(tmp_path)
        assert sorted(index.spec_hashes()) == sorted(docs)
        assert "buildcache.shard_load" not in trace.phase_stats()

    def test_stale_sidecar_is_ignored(self, tmp_path):
        """A sidecar the manifest does not vouch for (a crash between
        the two writes, a foreign writer) must not answer."""
        docs = populate(tmp_path, 40)
        stale = (tmp_path / SUMMARY_NAME).read_bytes()
        index = ShardedIndex(tmp_path)
        h, doc = fake_doc(40)
        index.record_push({h: doc}, {}, {})
        index.save()
        docs[h] = doc
        (tmp_path / SUMMARY_NAME).write_bytes(stale)
        obs.reset()
        index = ShardedIndex(tmp_path)
        for h in docs:
            assert index.has_spec(h)
        assert not index.has_spec(fake_hash(0, "absent"))
        assert metrics.counter("buildcache.summary_corrupt").value == 1
        assert metrics.counter("buildcache.summary_hits").value == 0

    def test_corrupt_sidecar_degrades_not_crashes(self, tmp_path):
        docs = populate(tmp_path, 20)
        (tmp_path / SUMMARY_NAME).write_text("{torn")
        obs.reset()
        index = ShardedIndex(tmp_path)
        for h in docs:
            assert index.has_spec(h)
        assert metrics.counter("buildcache.summary_corrupt").value >= 1

    def test_incremental_save_reuses_clean_summaries(self, tmp_path):
        """A one-shard push folds + summarizes one shard; the other
        shards' sidecar entries are reused without loading them."""
        populate(tmp_path, 200)
        index = ShardedIndex(tmp_path)
        h, doc = fake_doc(100000)
        obs.reset()
        index.record_push({h: doc}, {}, {})
        index.save()
        stats = trace.phase_stats()
        assert stats["buildcache.shard_save"]["count"] == 1
        # only the dirty shard was ever parsed during the save
        assert stats.get("buildcache.shard_load", {}).get("count", 0) <= 1
        manifest = json.loads((tmp_path / "index.json").read_text())
        assert manifest["summary_sha256"] == sidecar_sha(tmp_path)
        reopened = ShardedIndex(tmp_path)
        hashes = reopened.spec_hash_set()
        assert hashes is not None and h in hashes


class TestStateTokenAndRefresh:
    def test_push_without_save_moves_the_token(self, tmp_path):
        populate(tmp_path, 10)
        index = ShardedIndex(tmp_path)
        before = index.state_token()
        h, doc = fake_doc(999)
        index.record_push({h: doc}, {}, {})
        assert index.state_token() != before

    def test_refresh_is_noop_when_digest_unchanged(self, tmp_path):
        populate(tmp_path, 50)
        index = ShardedIndex(tmp_path)
        token = index.state_token()
        obs.reset()
        assert index.refresh() == 0
        assert index.state_token() == token
        assert "buildcache.shard_load" not in trace.phase_stats()

    def test_refresh_invalidates_only_changed_shards(self, tmp_path):
        docs = populate(tmp_path, 200)
        reader = ShardedIndex(tmp_path)
        reader.load_all()  # a fully warmed reader
        # another writer lands one new spec and saves
        writer = ShardedIndex(tmp_path)
        h, doc = fake_doc(100001)
        writer.record_push({h: doc}, {}, {})
        writer.save()

        obs.reset()
        changed = reader.refresh()
        assert changed == 1  # exactly the shard the new hash lives in
        assert reader.get_spec(h) == doc
        assert reader.spec_count() == len(docs) + 1
        # only the invalidated shard was re-read
        assert trace.phase_stats()["buildcache.shard_load"]["count"] == 1

    def test_refresh_keeps_journal_overlay(self, tmp_path):
        """A refresh must not lose this process's own unflushed pushes."""
        populate(tmp_path, 20)
        index = ShardedIndex(tmp_path)
        mine, mine_doc = fake_doc(500, "mine")
        index.record_push({mine: mine_doc}, {}, {})
        writer = ShardedIndex(tmp_path)
        theirs, theirs_doc = fake_doc(600, "theirs")
        writer.record_push({theirs: theirs_doc}, {}, {})
        writer.save()
        index.refresh()
        assert index.get_spec(mine) == mine_doc
        assert index.get_spec(theirs) == theirs_doc


class TestV2Compat:
    def test_v2_manifest_round_trips(self, tmp_path):
        """A digest-less v2 manifest (no sidecar) reads correctly, and
        the next save migrates it to v3."""
        docs = populate(tmp_path, 60)
        write_legacy_index(tmp_path, 2)
        reopened = ShardedIndex(tmp_path)
        assert reopened.spec_hash_set() is None  # nothing to prove it with
        for h in docs:
            assert reopened.has_spec(h)
        assert not reopened.has_spec(fake_hash(3, "absent"))
        # ...until the lookups above parsed every shard
        assert reopened.spec_hash_set() == frozenset(docs)
        reopened.save()  # migrate on save
        manifest = json.loads((tmp_path / "index.json").read_text())
        assert manifest["version"] == 3
        assert manifest["digest"]
        assert manifest["summary_sha256"] == sidecar_sha(tmp_path)
        migrated = ShardedIndex(tmp_path)
        assert migrated.spec_hash_set() == frozenset(docs)

    def test_v2_cache_reads_v3_state_transparently(self, tmp_path):
        """A push onto a v2 cache saves as v3 with every old spec."""
        docs = populate(tmp_path, 30)
        write_legacy_index(tmp_path, 2)
        index = ShardedIndex(tmp_path)
        h, doc = fake_doc(31)
        index.record_push({h: doc}, {}, {})
        index.save()
        reopened = ShardedIndex(tmp_path)
        assert reopened.spec_count() == len(docs) + 1
        assert reopened.spec_hash_set() == frozenset(docs) | {h}

    def test_v2_refresh_diffs_counts(self, tmp_path):
        """v2 manifests carry no digests, so refresh() finds changed
        shards by their spec counts."""
        populate(tmp_path, 50)
        write_legacy_index(tmp_path, 2)
        reader = ShardedIndex(tmp_path)
        reader.load_all()
        writer = ShardedIndex(tmp_path)
        h, doc = fake_doc(100002)
        writer.record_push({h: doc}, {}, {})
        writer.save()
        write_legacy_index(tmp_path, 2)
        assert reader.refresh() == 1
        assert reader.get_spec(h) == doc


class TestBuildCacheSummaryIntegration:
    def test_cache_negative_contains_reads_no_shard(self, tmp_path):
        index = ShardedIndex(tmp_path)
        docs = {}
        for i in range(50):
            h, doc = fake_doc(i)
            docs[h] = doc
        index.record_push(docs, {}, {})
        index.save()
        obs.reset()
        cache = BuildCache(tmp_path, name="c")
        assert fake_hash(1, "absent") not in cache
        assert "buildcache.shard_load" not in trace.phase_stats()
        assert cache.manifest_digest
        assert cache.spec_hash_set() == frozenset(docs)


class TestCorruptSidecar:
    """One flipped hex character inside a hashed sidecar: readers must
    notice that the bytes no longer match the manifest's record and
    answer from the shards, never from the corrupted table."""

    SPEC = "example@1.1.0 ^mpich@3.4.3"

    def spec_output(self, cache, capsys):
        capsys.readouterr()
        assert main(["--repo", "mock", "spec", "--cache", str(cache),
                     self.SPEC]) == 0
        return capsys.readouterr().out

    def test_flipped_hash_character_is_ignored(self, tmp_path, capsys):
        store, cache = tmp_path / "store", tmp_path / "bc"
        assert main(["--repo", "mock", "install", "--store", str(store),
                     self.SPEC]) == 0
        assert main(["--repo", "mock", "buildcache", "create", "example",
                     "--store", str(store), "--cache", str(cache)]) == 0
        pristine_hashes = {s.dag_hash() for s in BuildCache(cache).all_specs()}
        pristine_output = self.spec_output(cache, capsys)

        sidecar = json.loads((cache / SUMMARY_NAME).read_text())
        prefix = sorted(sidecar["shards"])[0]
        victim = sidecar["shards"][prefix]["hashes"][0]
        flipped = victim[:-1] + ("0" if victim[-1] != "0" else "1")
        raw = (cache / SUMMARY_NAME).read_text()
        (cache / SUMMARY_NAME).write_text(raw.replace(victim, flipped))

        obs.reset()
        assert ShardedIndex(cache).has_spec(victim)
        assert metrics.counter("buildcache.summary_corrupt").value == 1
        assert {s.dag_hash() for s in BuildCache(cache).all_specs()} == (
            pristine_hashes
        )
        assert self.spec_output(cache, capsys) == pristine_output
