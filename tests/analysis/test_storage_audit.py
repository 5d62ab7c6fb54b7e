"""The cache/store integrity families: CACHE001–CACHE007, STORE001–003.

Every checker is exercised twice: once against a pristine surface
(must be silent) and once against a seeded corruption (must fire).
The hypothesis property at the bottom is the satellite guarantee: any
single-byte corruption of a published cache entry is caught by at
least one ``CACHE`` checker.
"""

import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import Analyzer, AuditContext, audit_cache
from repro.buildcache import BuildCache, SigningKey, TrustStore
from repro.concretize import Concretizer, GroundProgramCache
from repro.installer import Installer
from repro.repos.mock import make_mock_repo


@pytest.fixture()
def repo():
    return make_mock_repo()


def build_cache(repo, tmp_path, signing_key=None, save=True):
    installer = Installer(tmp_path / "seed", repo)
    cache = BuildCache(tmp_path / "cache", signing_key=signing_key)
    spec = Concretizer(repo).solve(["example@1.1.0 ^mpich@3.4.3"]).roots[0]
    installer.install(spec)
    installer.push_to_cache(cache, spec)
    if save:
        cache.save_index()
    return cache


def run_cache_checks(cache, trust=None, checks=("cache",)):
    return Analyzer(list(checks)).run(AuditContext(cache=cache, trust=trust))


def flip_byte(path: Path, offset: int = -2) -> None:
    data = bytearray(path.read_bytes())
    data[offset] = data[offset] ^ 0x01
    path.write_bytes(bytes(data))


def bundles(tmp_path) -> list:
    return sorted((tmp_path / "cache" / "blobs").glob("*.bundle"))


def rewrite_head(bundle: Path, edit) -> None:
    """Let ``edit`` change a bundle's parsed head, then store it back in
    canonical form ahead of the untouched payload bytes."""
    head, _, payload = bundle.read_bytes().partition(b"\n")
    document = json.loads(head)
    edit(document)
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    bundle.write_bytes(canonical.encode() + b"\n" + payload)


class TestCleanCache:
    def test_saved_cache_is_clean(self, repo, tmp_path):
        cache = build_cache(repo, tmp_path)
        report = run_cache_checks(cache)
        assert report.clean, report.render()

    def test_signed_cache_with_trust_is_clean(self, repo, tmp_path):
        key = SigningKey.generate("publisher")
        cache = build_cache(repo, tmp_path, signing_key=key)
        trust = TrustStore([key])
        report = run_cache_checks(cache, trust=trust)
        assert report.clean, report.render()


class TestShards:
    def test_flipped_shard_byte_fires_cache001(self, repo, tmp_path):
        cache = build_cache(repo, tmp_path)
        shard = sorted((tmp_path / "cache" / "index.d").glob("*.json"))[0]
        flip_byte(shard)
        report = run_cache_checks(cache, checks=["cache.shards"])
        assert "CACHE001" in report.codes()
        assert "CACHE002" not in report.codes()

    def test_tampered_manifest_digest_fires_cache001_and_002(
        self, repo, tmp_path
    ):
        cache = build_cache(repo, tmp_path)
        index = tmp_path / "cache" / "index.json"
        doc = json.loads(index.read_text())
        prefix = sorted(doc["shards"])[0]
        doc["shards"][prefix]["digest"] = "0" * 64
        index.write_text(json.dumps(doc))
        report = run_cache_checks(cache, checks=["cache.shards"])
        assert {"CACHE001", "CACHE002"} <= set(report.codes())

    def test_unparseable_manifest_fires_cache002(self, repo, tmp_path):
        cache = build_cache(repo, tmp_path)
        (tmp_path / "cache" / "index.json").write_text("{ torn")
        report = run_cache_checks(cache, checks=["cache.shards"])
        assert report.codes() == ["CACHE002"]

    def test_wrong_spec_count_fires_cache001(self, repo, tmp_path):
        cache = build_cache(repo, tmp_path)
        index = tmp_path / "cache" / "index.json"
        doc = json.loads(index.read_text())
        prefix = sorted(doc["shards"])[0]
        doc["shards"][prefix]["specs"] += 7
        index.write_text(json.dumps(doc))
        report = run_cache_checks(cache, checks=["cache.shards"])
        # the count lie also changes nothing digest-wise, so only the
        # count cross-check catches it
        assert any(
            "spec(s) for shard" in d.message for d in report.diagnostics
        )


class TestSummary:
    def test_stale_sidecar_is_a_warning(self, repo, tmp_path):
        cache = build_cache(repo, tmp_path)
        sidecar = tmp_path / "cache" / "index.sum.json"
        doc = json.loads(sidecar.read_text())
        doc["digest"] = "0" * 64
        sidecar.write_text(json.dumps(doc))
        report = run_cache_checks(cache, checks=["cache.summary"])
        assert report.codes() == ["CACHE003"]
        assert not report.has_errors and report.warnings

    def test_false_negative_is_an_error(self, repo, tmp_path):
        cache = build_cache(repo, tmp_path)
        sidecar = tmp_path / "cache" / "index.sum.json"
        doc = json.loads(sidecar.read_text())
        prefix = sorted(
            p for p in doc["shards"] if doc["shards"][p]["hashes"]
        )[0]
        doc["shards"][prefix]["hashes"] = doc["shards"][prefix]["hashes"][1:]
        sidecar.write_text(json.dumps(doc))
        report = run_cache_checks(cache, checks=["cache.summary"])
        assert report.has_errors
        assert any("false negative" in d.message for d in report.errors)

    def test_phantom_entry_is_an_error(self, repo, tmp_path):
        cache = build_cache(repo, tmp_path)
        sidecar = tmp_path / "cache" / "index.sum.json"
        doc = json.loads(sidecar.read_text())
        prefix = sorted(doc["shards"])[0]
        doc["shards"][prefix]["hashes"].append(prefix + "f" * 30)
        doc["shards"][prefix]["hashes"].sort()
        sidecar.write_text(json.dumps(doc))
        report = run_cache_checks(cache, checks=["cache.summary"])
        assert report.has_errors
        assert any("phantom" in d.message for d in report.errors)

    def test_unreadable_sidecar_is_a_warning(self, repo, tmp_path):
        cache = build_cache(repo, tmp_path)
        (tmp_path / "cache" / "index.sum.json").write_text("not json")
        report = run_cache_checks(cache, checks=["cache.summary"])
        assert report.codes() == ["CACHE003"]
        assert not report.has_errors


class TestJournal:
    def _cache_with_unfolded_push(self, repo, tmp_path):
        # push_to_cache always folds; a bare cache.push does not
        cache = build_cache(repo, tmp_path)
        installer = Installer(tmp_path / "seed2", repo)
        zlib = Concretizer(repo).solve(["zlib"]).roots[0]
        installer.install(zlib)
        cache.push(zlib, installer.database.prefix_of(zlib))
        return cache

    def test_unfolded_entries_are_noted(self, repo, tmp_path):
        cache = self._cache_with_unfolded_push(repo, tmp_path)
        report = run_cache_checks(cache, checks=["cache.journal"])
        notes = [d for d in report.diagnostics if d.code == "CACHE004"]
        assert notes and "await a save_index fold" in notes[0].message

    def test_garbage_line_is_a_warning(self, repo, tmp_path):
        cache = self._cache_with_unfolded_push(repo, tmp_path)
        journal = tmp_path / "cache" / "journal.jsonl"
        with journal.open("a") as fh:
            fh.write("{ torn line\n")
        report = run_cache_checks(cache, checks=["cache.journal"])
        assert any(
            "unparseable" in d.message and d.severity.value == "warning"
            for d in report.diagnostics
        )


class TestEntries:
    def test_torn_blob_fires_cache005(self, repo, tmp_path):
        cache = build_cache(repo, tmp_path)
        flip_byte(bundles(tmp_path)[0])  # a payload byte near the end
        report = run_cache_checks(cache, checks=["cache.entries"])
        assert any(
            "torn or tampered" in d.message for d in report.errors
        ), report.render()

    def test_missing_meta_fires_cache005(self, repo, tmp_path):
        cache = build_cache(repo, tmp_path)
        rewrite_head(bundles(tmp_path)[0], lambda head: head.pop("meta"))
        report = run_cache_checks(cache, checks=["cache.entries"])
        assert any("corrupt bundle" in d.message for d in report.errors)

    def test_file_missing_from_payload_fires_cache005(self, repo, tmp_path):
        cache = build_cache(repo, tmp_path)
        bundle = bundles(tmp_path)[0]
        bundle.write_bytes(bundle.read_bytes()[:-10])
        report = run_cache_checks(cache, checks=["cache.entries"])
        assert any(
            "overruns the bundle" in d.message for d in report.errors
        ), report.render()

    def test_orphaned_blob_fires_cache006(self, repo, tmp_path):
        cache = build_cache(repo, tmp_path)
        bundle = bundles(tmp_path)[0]
        shutil.copy(bundle, bundle.parent / ("f" * 32 + ".bundle"))
        report = run_cache_checks(cache, checks=["cache.entries"])
        assert "CACHE006" in report.codes()
        assert any("orphaned payload" in d.message for d in report.warnings)

    def test_flipped_signature_fires_cache007(self, repo, tmp_path):
        key = SigningKey.generate("publisher")
        cache = build_cache(repo, tmp_path, signing_key=key)

        def flip(head):
            sig = head["signature"]["signature"]
            head["signature"]["signature"] = (
                "0" if sig[0] != "0" else "1"
            ) + sig[1:]

        rewrite_head(bundles(tmp_path)[0], flip)
        report = run_cache_checks(
            cache, trust=TrustStore([key]), checks=["cache.entries"]
        )
        assert any(
            d.code == "CACHE007" and d.severity.value == "error"
            for d in report.diagnostics
        )

    def test_tampered_algorithm_fires_cache007(self, repo, tmp_path):
        """The HMAC does not cover the algorithm field, so it is checked
        by name — HMAC alone lets it drift."""
        key = SigningKey.generate("publisher")
        cache = build_cache(repo, tmp_path, signing_key=key)
        rewrite_head(
            bundles(tmp_path)[0],
            lambda head: head["signature"].update(algorithm=" mac-sha256"),
        )
        report = run_cache_checks(
            cache, trust=TrustStore([key]), checks=["cache.entries"]
        )
        assert any(
            d.code == "CACHE007" and "unknown algorithm" in d.message
            for d in report.errors
        ), report.render()

    def test_missing_signature_warns_under_trust(self, repo, tmp_path):
        key = SigningKey.generate("publisher")
        cache = build_cache(repo, tmp_path, signing_key=key)
        for bundle in bundles(tmp_path):
            rewrite_head(bundle, lambda head: head.update(signature=None))
        report = run_cache_checks(
            cache, trust=TrustStore([key]), checks=["cache.entries"]
        )
        assert all(d.code == "CACHE007" for d in report.diagnostics)
        assert report.warnings and not report.has_errors

    def test_malformed_signature_errors_without_trust(self, repo, tmp_path):
        key = SigningKey.generate("publisher")
        cache = build_cache(repo, tmp_path, signing_key=key)
        rewrite_head(
            bundles(tmp_path)[0],
            lambda head: head.update(signature={"key_id": "x"}),
        )
        report = run_cache_checks(cache, checks=["cache.entries"])
        assert any(
            d.code == "CACHE007" and "malformed" in d.message
            for d in report.errors
        )


class TestGroundCache:
    def _solved_ground_cache(self, repo, tmp_path):
        directory = tmp_path / "ground"
        directory.mkdir()
        Concretizer(repo, ground_cache=GroundProgramCache(directory)).solve(
            ["zlib"]
        )
        assert list(directory.glob("ground-*.pkl"))
        return directory

    def test_clean_ground_cache(self, repo, tmp_path):
        directory = self._solved_ground_cache(repo, tmp_path)
        report = Analyzer(["store.groundcache"]).run(
            AuditContext(ground_cache_dir=directory)
        )
        assert report.clean, report.render()

    def test_payload_digest_mismatch_fires_store001(self, repo, tmp_path):
        directory = self._solved_ground_cache(repo, tmp_path)
        flip_byte(sorted(directory.glob("ground-*.pkl"))[0])
        report = Analyzer(["store.groundcache"]).run(
            AuditContext(ground_cache_dir=directory)
        )
        assert any(
            "do not match the sidecar" in d.message for d in report.errors
        )

    def test_incomplete_pair_fires_store001(self, repo, tmp_path):
        directory = self._solved_ground_cache(repo, tmp_path)
        sorted(directory.glob("ground-*.json"))[0].unlink()
        report = Analyzer(["store.groundcache"]).run(
            AuditContext(ground_cache_dir=directory)
        )
        assert any("incomplete pair" in d.message for d in report.errors)


class TestStoreTree:
    def _store(self, repo, tmp_path):
        installer = Installer(tmp_path / "store", repo)
        spec = Concretizer(repo).solve(["zlib"]).roots[0]
        installer.install(spec)
        return installer.database, tmp_path / "store"

    def test_clean_store(self, repo, tmp_path):
        database, store = self._store(repo, tmp_path)
        report = Analyzer(["store.tree", "store.relocation"]).run(
            AuditContext(database=database, store=store)
        )
        assert report.clean, report.render()

    def test_orphaned_prefix_fires_store002(self, repo, tmp_path):
        database, store = self._store(repo, tmp_path)
        (store / ("ghost-9.9-" + "0" * 16)).mkdir()
        report = Analyzer(["store.tree"]).run(
            AuditContext(database=database, store=store)
        )
        assert any("orphaned install" in d.message for d in report.warnings)

    def test_leftover_staging_fires_store002(self, repo, tmp_path):
        database, store = self._store(repo, tmp_path)
        staging = store / ".staging" / "half-done"
        staging.mkdir(parents=True)
        report = Analyzer(["store.tree"]).run(
            AuditContext(database=database, store=store)
        )
        assert any("staging" in d.message for d in report.warnings)

    def test_unrelocated_prefix_fires_store003(self, repo, tmp_path):
        from repro.binary.mockelf import MockBinary

        database, store = self._store(repo, tmp_path)
        record = next(iter(database))
        lib = sorted((Path(record.prefix) / "lib").iterdir())[0]
        binary = MockBinary.read(lib)
        binary.rpaths = list(binary.rpaths) + ["/build-machine/deps/lib"]
        binary.write(lib)
        report = Analyzer(["store.relocation"]).run(
            AuditContext(database=database, store=store)
        )
        assert any(
            "/build-machine/deps/lib" in d.message for d in report.errors
        )


# ---------------------------------------------------------------------------
# the mutation property: any single-byte corruption is detected
# ---------------------------------------------------------------------------
_WHITESPACE = b" \t\n\r"


def _mutation_targets(root: Path):
    """Every file of a published cache, with the byte positions a
    corruption may land on.  Shards and bundles accept any position;
    the unsigned JSON control files (index.json, sidecar) exclude
    whitespace bytes, which carry no meaning for any reader."""
    targets = []
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        data = path.read_bytes()
        if not data:
            continue
        rel = path.relative_to(root).as_posix()
        if rel in ("index.json", "index.sum.json"):
            positions = [
                i for i, b in enumerate(data) if bytes([b]) not in _WHITESPACE
            ]
        else:
            positions = list(range(len(data)))
        if positions:
            targets.append((path, positions))
    return targets


@pytest.fixture(scope="module")
def pristine_cache(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("mutation")
    repo = make_mock_repo()
    key = SigningKey.generate("publisher")
    cache = build_cache(repo, tmp_path, signing_key=key)
    trust = TrustStore([key])
    baseline = run_cache_checks(cache, trust=trust)
    assert baseline.clean, baseline.render()
    return cache, trust, Path(cache.root)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_single_byte_corruption_is_detected(pristine_cache, data):
    cache, trust, root = pristine_cache
    targets = _mutation_targets(root)
    path, positions = data.draw(st.sampled_from(targets))
    position = data.draw(st.sampled_from(positions))
    original = path.read_bytes()
    new_byte = data.draw(
        st.integers(0, 255).filter(lambda b: b != original[position])
    )
    corrupted = bytearray(original)
    corrupted[position] = new_byte
    path.write_bytes(bytes(corrupted))
    try:
        report = run_cache_checks(cache, trust=trust)
        assert report.diagnostics, (
            f"corruption of {path.relative_to(root)} at byte {position} "
            f"({original[position]:#x} -> {new_byte:#x}) went undetected"
        )
        assert any(d.code.startswith("CACHE") for d in report.diagnostics)
    finally:
        path.write_bytes(original)
