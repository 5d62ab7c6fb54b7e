"""BuildCache unit tests: layout, index persistence, signing/trust."""

import json

import pytest

from repro.binary.mockelf import MockBinary
from repro.buildcache import (
    BuildCache,
    BuildCacheError,
    CachedPayload,
    LocalFSBackend,
    MissingBlobError,
    SigningKey,
    SimulatedRemoteBackend,
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


def bundle_path(cache, dag_hash):
    return cache.blobs / f"{dag_hash}.bundle"


def rewrite_bundle(cache, dag_hash, edit):
    """Parse an entry's bundle, let ``edit`` change the in-memory
    payload (manifest and signature stay as they are unless ``edit``
    changes them), and store it back."""
    path = bundle_path(cache, dag_hash)
    payload = CachedPayload.from_bundle(dag_hash, path.read_bytes())
    edit(payload)
    path.write_bytes(payload.to_bundle())


class TestPushExtract:
    def test_round_trip_relocates_binaries(self, zlib, tmp_path):
        src = fake_install(tmp_path / "build" / "zlib")
        cache = BuildCache(tmp_path / "cache")
        cache.push(zlib, src)
        h = zlib.dag_hash()
        assert h in cache
        assert sorted(cache.fetch(h).files) == ["README", "lib/libzlib.so"]

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
        assert cache.fetch(zlib.dag_hash()).meta["dep_prefixes"] == {
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
        with pytest.raises(MissingBlobError, match="no bundle"):
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
        # same length, so the bundle still parses: only the digest tells
        rewrite_bundle(
            cache, h, lambda p: p.files.update(README=b"evil payload!")
        )

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
        trust = TrustStore()
        trust.trust(key)
        consumer = BuildCache(tmp_path / "cache", trust=trust)
        pristine = bundle_path(cache, h).read_bytes()

        # bytes appended outside the manifest are never ignored
        bundle_path(cache, h).write_bytes(pristine + b"injected")
        with pytest.raises(BuildCacheError, match="trailing"):
            consumer.extract(h, tmp_path / "out")

        # a file added to the manifest breaks its signature
        def inject(payload):
            payload.files["sneaky.so"] = b"injected"
            payload.manifest["files"]["sneaky.so"] = {
                "sha256": "0" * 64, "size": len(b"injected"),
            }

        bundle_path(cache, h).write_bytes(pristine)
        rewrite_bundle(cache, h, inject)
        with pytest.raises(BuildCacheError, match="does not verify"):
            consumer.extract(h, tmp_path / "out")

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
        rewrite_bundle(
            cache, h, lambda p: p.files.update(README=b"tampered data")
        )
        # no trust policy: extraction proceeds (local scratch mirror)
        dest = BuildCache(tmp_path / "cache").extract(h, tmp_path / "out")
        assert (dest / "README").read_text() == "tampered data"


class TestCorruptEntries:
    def test_manifest_without_meta_is_a_cache_error(self, zlib, tmp_path):
        """A bundle whose head lost its meta must surface as a
        BuildCacheError, not a raw KeyError, for plain and trusting
        readers alike."""
        key = SigningKey.generate("publisher")
        src = fake_install(tmp_path / "build" / "zlib")
        cache = BuildCache(tmp_path / "cache", signing_key=key)
        cache.push(zlib, src)
        h = zlib.dag_hash()
        data = bundle_path(cache, h).read_bytes()
        head, _, payload = data.partition(b"\n")
        document = json.loads(head)
        del document["meta"]
        bundle_path(cache, h).write_bytes(
            json.dumps(document, sort_keys=True, separators=(",", ":")).encode()
            + b"\n" + payload
        )

        with pytest.raises(BuildCacheError, match="corrupt bundle"):
            cache.fetch(h)
        consumer = BuildCache(tmp_path / "cache", trust=TrustStore([key]))
        with pytest.raises(BuildCacheError, match="corrupt bundle"):
            consumer.extract(h, tmp_path / "out")

    def test_corrupt_meta_json_is_diagnosed(self, zlib, tmp_path):
        src = fake_install(tmp_path / "build" / "zlib")
        cache = BuildCache(tmp_path / "cache")
        cache.push(zlib, src)
        h = zlib.dag_hash()
        bundle_path(cache, h).write_text("{torn")
        with pytest.raises(BuildCacheError, match="corrupt bundle"):
            cache.fetch(h)


class TestBundle:
    def test_fetch_is_one_get_and_verify_makes_no_call(self, zlib, tmp_path):
        key = SigningKey.generate("publisher")
        src = fake_install(tmp_path / "build" / "zlib")
        BuildCache(tmp_path / "cache", signing_key=key).push(zlib, src)
        backend = SimulatedRemoteBackend(LocalFSBackend(tmp_path / "cache"))
        consumer = BuildCache(backend=backend, trust=TrustStore([key]))
        backend.op_counts.clear()
        payload = consumer.fetch(zlib.dag_hash())
        assert backend.op_counts == {"get": 1}
        consumer.verify_payload(payload)
        assert payload.verified
        assert backend.op_counts == {"get": 1}
        assert payload.size == sum(
            path.stat().st_size for path in src.rglob("*") if path.is_file()
        )

    def test_bundle_round_trips_with_empty_dirs(self, zlib, tmp_path):
        src = fake_install(tmp_path / "build" / "zlib")
        (src / "include" / "empty").mkdir(parents=True)
        cache = BuildCache(tmp_path / "cache")
        cache.push(zlib, src)
        payload = cache.fetch(zlib.dag_hash())
        assert payload.dirs == ["include", "include/empty", "lib"]
        assert payload.manifest["dirs"] == payload.dirs
        assert CachedPayload.from_bundle(
            zlib.dag_hash(), payload.to_bundle()
        ).files == payload.files
        dest = cache.extract(zlib.dag_hash(), tmp_path / "out")
        assert (dest / "include" / "empty").is_dir()

    def test_every_single_byte_change_fails_verification(self, zlib, tmp_path):
        """A reader ignores no byte: flipping any one byte of a signed
        bundle makes the fetch or the verification fail."""
        key = SigningKey.generate("publisher")
        src = fake_install(tmp_path / "build" / "zlib")
        cache = BuildCache(tmp_path / "cache", signing_key=key)
        cache.push(zlib, src)
        h = zlib.dag_hash()
        consumer = BuildCache(tmp_path / "cache", trust=TrustStore([key]))
        data = bundle_path(cache, h).read_bytes()
        consumer.verify_payload(CachedPayload.from_bundle(h, data))
        for position in range(len(data)):
            for flip in (0x01, 0x20):
                corrupted = bytearray(data)
                corrupted[position] ^= flip
                with pytest.raises(BuildCacheError):
                    consumer.verify_payload(
                        CachedPayload.from_bundle(h, bytes(corrupted))
                    )

    def test_non_canonical_head_is_rejected(self, zlib, tmp_path):
        src = fake_install(tmp_path / "build" / "zlib")
        cache = BuildCache(tmp_path / "cache")
        cache.push(zlib, src)
        h = zlib.dag_hash()
        head, _, payload = bundle_path(cache, h).read_bytes().partition(b"\n")
        spaced = json.dumps(json.loads(head), sort_keys=True).encode()
        with pytest.raises(BuildCacheError, match="canonical"):
            CachedPayload.from_bundle(h, spaced + b"\n" + payload)

    def test_misfiled_bundle_is_rejected(self, zlib, tmp_path):
        src = fake_install(tmp_path / "build" / "zlib")
        cache = BuildCache(tmp_path / "cache")
        cache.push(zlib, src)
        data = bundle_path(cache, zlib.dag_hash()).read_bytes()
        with pytest.raises(BuildCacheError, match="misfiled"):
            CachedPayload.from_bundle("f" * 32, data)

    def test_unsafe_payload_path_is_rejected(self, zlib, tmp_path):
        src = fake_install(tmp_path / "build" / "zlib")
        cache = BuildCache(tmp_path / "cache")
        cache.push(zlib, src)
        h = zlib.dag_hash()

        def escape(payload):
            payload.files["../escape"] = payload.files.pop("README")
            entry = payload.manifest["files"].pop("README")
            payload.manifest["files"]["../escape"] = entry

        rewrite = bundle_path(cache, h)
        payload = CachedPayload.from_bundle(h, rewrite.read_bytes())
        escape(payload)
        with pytest.raises(BuildCacheError, match="malformed manifest entry"):
            CachedPayload.from_bundle(h, payload.to_bundle())


class TestTornPush:
    def test_interrupted_repush_preserves_previous_entry(
        self, zlib, tmp_path, monkeypatch
    ):
        """The torn-push regression: a re-push dying mid-write used to
        leave the old signed manifest over a partial new payload.  The
        entry is one bundle written with one atomic put — after the
        fault the previous entry is intact and still extracts."""
        import os

        key = SigningKey.generate("publisher")
        src = fake_install(tmp_path / "build" / "zlib")
        cache = BuildCache(tmp_path / "cache", signing_key=key)
        cache.push(zlib, src)
        h = zlib.dag_hash()

        new_src = fake_install(tmp_path / "build2" / "zlib")
        (new_src / "EXTRA").write_text("second revision\n")

        def reset(fd):
            raise OSError("connection reset")

        monkeypatch.setattr(os, "fsync", reset)
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
        assert sorted(p.name for p in cache.blobs.iterdir()) == [f"{h}.bundle"]

        # and the re-push completes cleanly afterwards
        cache.push(zlib, new_src)
        dest2 = BuildCache(tmp_path / "cache", trust=trust).extract(
            h, tmp_path / "out2"
        )
        assert (dest2 / "EXTRA").read_text() == "second revision\n"

    def test_repush_killed_mid_write_preserves_previous_entry(
        self, zlib, tmp_path
    ):
        """A publisher killed while writing a re-pushed bundle (no
        cleanup runs) leaves the previous bundle whole and verifiable."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        key = SigningKey.generate("publisher")
        src = fake_install(tmp_path / "build" / "zlib")
        BuildCache(tmp_path / "cache", signing_key=key).push(zlib, src)
        h = zlib.dag_hash()
        before = bundle_path(BuildCache(tmp_path / "cache"), h).read_bytes()
        new_src = fake_install(tmp_path / "build2" / "zlib")
        (new_src / "EXTRA").write_text("second revision\n")
        script = f"""
import os
from repro.buildcache import BuildCache, SigningKey, greedy_concretize
from repro.repos.mock import make_mock_repo
zlib = greedy_concretize(make_mock_repo(), "zlib", include_build_deps=False)
cache = BuildCache({str(tmp_path / "cache")!r},
                   signing_key=SigningKey({key.name!r}, {key.secret!r}))
os.fsync = lambda fd: os._exit(9)  # die with the new bundle half-written
cache.push(zlib, {str(new_src)!r})
"""
        env = dict(os.environ)
        src_dir = Path(__file__).resolve().parents[2] / "src"
        env["PYTHONPATH"] = f"{src_dir}:{env.get('PYTHONPATH', '')}"
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True,
        )
        assert proc.returncode == 9, proc.stderr
        consumer = BuildCache(tmp_path / "cache", trust=TrustStore([key]))
        assert bundle_path(consumer, h).read_bytes() == before
        dest = consumer.extract(h, tmp_path / "out")
        assert not (dest / "EXTRA").exists()
