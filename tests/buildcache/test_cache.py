"""BuildCache unit tests: layout, index persistence, signing/trust."""

import json

import pytest

from repro.binary.mockelf import MockBinary
from repro.buildcache import (
    BuildCache,
    BuildCacheError,
    SigningKey,
    TrustStore,
    greedy_concretize,
)
from repro.repos.mock import make_mock_repo
from repro.spec import parse_one


@pytest.fixture(scope="module")
def repo():
    return make_mock_repo()


@pytest.fixture()
def zlib(repo):
    return greedy_concretize(repo, "zlib", include_build_deps=False)


def fake_install(prefix, soname="libzlib.so"):
    """Lay out a minimal install tree: one mock binary that references
    its own prefix, plus an opaque text file."""
    (prefix / "lib").mkdir(parents=True)
    MockBinary(
        soname=soname,
        rpaths=[f"{prefix}/lib"],
        path_blob=[str(prefix)],
    ).write(prefix / "lib" / soname)
    (prefix / "README").write_text("not a binary\n")
    return prefix


class TestPushExtract:
    def test_round_trip_relocates_binaries(self, zlib, tmp_path):
        src = fake_install(tmp_path / "build" / "zlib")
        cache = BuildCache(tmp_path / "cache")
        cache.push(zlib, src)
        h = zlib.dag_hash()
        assert h in cache
        assert cache.has_payload(h)

        dest = tmp_path / "store" / "zlib"
        cache.extract(h, dest)
        binary = MockBinary.read(dest / "lib" / "libzlib.so")
        assert binary.rpaths == [f"{dest}/lib"]
        assert not binary.references_prefix(str(src))
        # opaque files are copied verbatim
        assert (dest / "README").read_text() == "not a binary\n"

    def test_dep_prefixes_relocate_via_extra_map(self, zlib, tmp_path):
        src = tmp_path / "build" / "zlib"
        (src / "lib").mkdir(parents=True)
        MockBinary(
            soname="libzlib.so",
            rpaths=[f"{src}/lib", "/buildfarm/mpich/lib"],
        ).write(src / "lib" / "libzlib.so")
        cache = BuildCache(tmp_path / "cache")
        cache.push(zlib, src, dep_prefixes={"abc123": "/buildfarm/mpich"})
        assert cache.meta(zlib.dag_hash())["dep_prefixes"] == {
            "abc123": "/buildfarm/mpich"
        }

        dest = tmp_path / "store" / "zlib"
        cache.extract(
            zlib.dag_hash(), dest,
            extra_prefix_map={"/buildfarm/mpich": "/local/mpich"},
        )
        binary = MockBinary.read(dest / "lib" / "libzlib.so")
        assert binary.references_prefix("/local/mpich")
        assert not binary.references_prefix("/buildfarm/mpich")

    def test_push_rejects_abstract_spec(self, tmp_path):
        cache = BuildCache(tmp_path / "cache")
        with pytest.raises(BuildCacheError, match="abstract"):
            cache.push(parse_one("zlib"), tmp_path)

    def test_push_rejects_missing_prefix(self, zlib, tmp_path):
        cache = BuildCache(tmp_path / "cache")
        with pytest.raises(BuildCacheError, match="does not exist"):
            cache.push(zlib, tmp_path / "nowhere")

    def test_extract_unknown_hash_fails_loudly(self, tmp_path):
        cache = BuildCache(tmp_path / "cache")
        with pytest.raises(BuildCacheError, match="no metadata"):
            cache.extract("deadbeef", tmp_path / "out")


class TestIndexPersistence:
    def test_reopen_sees_pushed_specs(self, repo, zlib, tmp_path):
        src = fake_install(tmp_path / "build" / "zlib")
        cache = BuildCache(tmp_path / "cache")
        cache.push(zlib, src)
        cache.save_index()

        reopened = BuildCache(tmp_path / "cache")
        assert len(reopened) == 1
        assert zlib.dag_hash() in reopened
        (restored,) = reopened.all_specs()
        assert restored.dag_hash() == zlib.dag_hash()
        assert restored.concrete

    def test_push_is_durable_without_save_index(self, zlib, tmp_path):
        """The journal closes the old durability gap: a push with no
        later save_index() survives reopen."""
        src = fake_install(tmp_path / "build" / "zlib")
        cache = BuildCache(tmp_path / "cache")
        cache.push(zlib, src)  # no save_index()
        assert (tmp_path / "cache" / "journal.jsonl").exists()
        reopened = BuildCache(tmp_path / "cache")
        assert len(reopened) == 1
        assert zlib.dag_hash() in reopened
        (restored,) = reopened.all_specs()
        assert restored.dag_hash() == zlib.dag_hash()

    def test_all_specs_builds_each_shared_node_once(self, repo, tmp_path):
        """Two indexed DAGs that share zlib and bzip2 get one node object
        per hash; a reopened cache returns the same hashes in order."""
        example = greedy_concretize(repo, "example@1.1.0 ^mpich@3.4.3")
        cache = BuildCache(tmp_path / "cache")
        for node in example.traverse():
            cache.push(node, fake_install(tmp_path / "build" / node.name))
        cache.save_index()
        specs = BuildCache(tmp_path / "cache").all_specs()
        objects = {}
        for spec in specs:
            for node in spec.traverse():
                objects.setdefault(node.dag_hash(), set()).add(id(node))
        assert len(objects) == len(specs) == 4
        assert all(len(ids) == 1 for ids in objects.values())
        assert [s.dag_hash() for s in specs] == sorted(
            node.dag_hash() for node in example.traverse()
        )

    def test_corrupt_index_is_diagnosed(self, tmp_path):
        root = tmp_path / "cache"
        root.mkdir()
        (root / "index.json").write_text("{not json")
        with pytest.raises(BuildCacheError, match="corrupt buildcache index"):
            BuildCache(root)

    def test_future_index_version_is_refused(self, tmp_path):
        root = tmp_path / "cache"
        root.mkdir()
        (root / "index.json").write_text(json.dumps({"version": 99}))
        with pytest.raises(BuildCacheError, match="version"):
            BuildCache(root)


class TestSigning:
    @pytest.fixture()
    def key(self):
        return SigningKey.generate("ci-publisher")

    def test_signed_round_trip(self, zlib, tmp_path, key):
        src = fake_install(tmp_path / "build" / "zlib")
        BuildCache(tmp_path / "cache", signing_key=key).push(zlib, src)

        trust = TrustStore()
        trust.trust(key)
        consumer = BuildCache(tmp_path / "cache", trust=trust)
        dest = consumer.extract(zlib.dag_hash(), tmp_path / "store" / "zlib")
        assert (dest / "lib" / "libzlib.so").exists()

    def test_tampered_payload_is_rejected(self, zlib, tmp_path, key):
        src = fake_install(tmp_path / "build" / "zlib")
        cache = BuildCache(tmp_path / "cache", signing_key=key)
        cache.push(zlib, src)
        h = zlib.dag_hash()
        (cache.blobs / h / "files" / "README").write_text("evil payload")

        trust = TrustStore()
        trust.trust(key)
        consumer = BuildCache(tmp_path / "cache", trust=trust)
        with pytest.raises(BuildCacheError, match="tampered"):
            consumer.extract(h, tmp_path / "out")

    def test_extra_file_in_payload_is_rejected(self, zlib, tmp_path, key):
        src = fake_install(tmp_path / "build" / "zlib")
        cache = BuildCache(tmp_path / "cache", signing_key=key)
        cache.push(zlib, src)
        h = zlib.dag_hash()
        (cache.blobs / h / "files" / "sneaky.so").write_text("injected")

        trust = TrustStore()
        trust.trust(key)
        with pytest.raises(BuildCacheError, match="unexpected file"):
            BuildCache(tmp_path / "cache", trust=trust).extract(h, tmp_path / "out")

    def test_unsigned_entry_rejected_by_trusting_consumer(self, zlib, tmp_path, key):
        src = fake_install(tmp_path / "build" / "zlib")
        BuildCache(tmp_path / "cache").push(zlib, src)  # unsigned push

        trust = TrustStore()
        trust.trust(key)
        with pytest.raises(BuildCacheError, match="unsigned"):
            BuildCache(tmp_path / "cache", trust=trust).extract(
                zlib.dag_hash(), tmp_path / "out"
            )

    def test_signature_from_untrusted_key_rejected(self, zlib, tmp_path, key):
        src = fake_install(tmp_path / "build" / "zlib")
        BuildCache(tmp_path / "cache", signing_key=key).push(zlib, src)

        trust = TrustStore()
        trust.trust(SigningKey.generate("someone-else"))
        with pytest.raises(BuildCacheError):
            BuildCache(tmp_path / "cache", trust=trust).extract(
                zlib.dag_hash(), tmp_path / "out"
            )

    def test_untrusting_consumer_ignores_signatures(self, zlib, tmp_path, key):
        src = fake_install(tmp_path / "build" / "zlib")
        cache = BuildCache(tmp_path / "cache", signing_key=key)
        cache.push(zlib, src)
        h = zlib.dag_hash()
        (cache.blobs / h / "files" / "README").write_text("tampered")
        # no trust policy: extraction proceeds (local scratch mirror)
        dest = BuildCache(tmp_path / "cache").extract(h, tmp_path / "out")
        assert (dest / "README").read_text() == "tampered"


class TestCorruptEntries:
    def test_manifest_without_meta_is_a_cache_error(self, zlib, tmp_path):
        """An entry whose meta.json vanished must surface as a
        BuildCacheError, not a raw FileNotFoundError, on both the meta
        and the verify paths."""
        key = SigningKey.generate("publisher")
        src = fake_install(tmp_path / "build" / "zlib")
        cache = BuildCache(tmp_path / "cache", signing_key=key)
        cache.push(zlib, src)
        h = zlib.dag_hash()
        (cache.blobs / h / "meta.json").unlink()

        with pytest.raises(BuildCacheError, match="no metadata"):
            cache.meta(h)

        trust = TrustStore()
        trust.trust(key)
        consumer = BuildCache(tmp_path / "cache", trust=trust)
        with pytest.raises(BuildCacheError, match="no metadata"):
            consumer._verify_files(h, {})

    def test_corrupt_meta_json_is_diagnosed(self, zlib, tmp_path):
        src = fake_install(tmp_path / "build" / "zlib")
        cache = BuildCache(tmp_path / "cache")
        cache.push(zlib, src)
        h = zlib.dag_hash()
        (cache.blobs / h / "meta.json").write_text("{torn")
        with pytest.raises(BuildCacheError, match="corrupt metadata"):
            cache.meta(h)


class TestTornPush:
    def test_interrupted_repush_preserves_previous_entry(
        self, zlib, tmp_path, monkeypatch
    ):
        """The torn-push regression: a re-push dying mid-copy used to
        leave the old signed manifest over a partial new payload.  The
        entry now publishes atomically — after the fault the previous
        entry is intact and still extracts."""
        from repro.buildcache.backend import LocalFSBackend

        key = SigningKey.generate("publisher")
        src = fake_install(tmp_path / "build" / "zlib")
        cache = BuildCache(tmp_path / "cache", signing_key=key)
        cache.push(zlib, src)
        h = zlib.dag_hash()

        new_src = fake_install(tmp_path / "build2" / "zlib")
        (new_src / "EXTRA").write_text("second revision\n")

        real_stage = LocalFSBackend._stage_file
        calls = {"n": 0}

        def flaky_stage(self, path, data):
            calls["n"] += 1
            if calls["n"] == 3:  # die partway through the payload copy
                raise OSError("connection reset")
            real_stage(self, path, data)

        monkeypatch.setattr(LocalFSBackend, "_stage_file", flaky_stage)
        with pytest.raises(OSError, match="connection reset"):
            cache.push(zlib, new_src)
        monkeypatch.undo()

        # the old entry is byte-for-byte intact and still verifies
        trust = TrustStore()
        trust.trust(key)
        consumer = BuildCache(tmp_path / "cache", trust=trust)
        dest = consumer.extract(h, tmp_path / "out")
        assert (dest / "README").read_text() == "not a binary\n"
        assert not (dest / "EXTRA").exists()

        # and the re-push completes cleanly afterwards
        cache.push(zlib, new_src)
        dest2 = BuildCache(tmp_path / "cache", trust=trust).extract(
            h, tmp_path / "out2"
        )
        assert (dest2 / "EXTRA").read_text() == "second revision\n"
