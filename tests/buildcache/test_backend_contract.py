"""The storage-backend contract, enforced across every implementation.

One parameterized suite runs the byte-level contract — round trips,
error taxonomy, escape guard, read-only refusal, durable append,
atomic entry publish — against ``LocalFSBackend``,
``SimulatedRemoteBackend`` and ``HTTPBackend`` talking to a live
``buildcache serve`` process, so a backend can't drift from the
semantics MirrorGroup and BuildCache were tested against.
"""

import os
import socket

import pytest

from repro.buildcache import (
    BackendError,
    BuildCache,
    HTTPBackend,
    LocalFSBackend,
    MissingBlobError,
    ReadOnlyBackendError,
    SigningKey,
    SimulatedRemoteBackend,
    TrustStore,
    greedy_concretize,
)
from repro.buildcache.server import start_server
from repro.repos.mock import make_mock_repo


class Harness:
    """One backend implementation under test: builds writable and
    read-only handles over the *same* underlying storage, and knows how
    to make the next write die mid-upload."""

    def __init__(self, kind, tmp_path):
        self.kind = kind
        self.root = tmp_path / "store"
        self.root.mkdir()
        self.server = None
        if kind == "http":
            self.server = start_server(self.root)

    def close(self):
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()

    def make(self, writable=True):
        if self.kind == "local":
            return LocalFSBackend(self.root, name="local", writable=writable)
        if self.kind == "sim":
            return SimulatedRemoteBackend(
                LocalFSBackend(self.root, name="inner"),
                name="sim",
                read_only=not writable,
            )
        return HTTPBackend(self.server.url, name="http", writable=writable)

    def break_next_put(self, monkeypatch):
        """Make the next ``put`` die halfway through its bytes: over
        HTTP the client sends half the body and hangs up; locally the
        write fails before the rename."""
        if self.kind == "http":
            def cut(backend, key, data):
                head = (
                    f"PUT /{key} HTTP/1.1\r\nHost: test\r\n"
                    f"Content-Length: {len(data)}\r\n\r\n"
                ).encode()
                address = (backend.host, backend.port)
                with socket.create_connection(address) as sock:
                    sock.sendall(head + data[: len(data) // 2])
                    sock.shutdown(socket.SHUT_WR)
                    sock.recv(4096)
                raise OSError("wire cut")

            monkeypatch.setattr(HTTPBackend, "put", cut)
        else:
            def disk_full(fd):
                raise OSError("disk full")

            monkeypatch.setattr(os, "fsync", disk_full)


@pytest.fixture(params=["local", "sim", "http"])
def harness(request, tmp_path):
    h = Harness(request.param, tmp_path)
    yield h
    h.close()


@pytest.fixture()
def backend(harness):
    return harness.make()


class TestByteContract:
    def test_put_get_round_trip(self, backend):
        backend.put("index.d/ab.json", b"{}")
        assert backend.get("index.d/ab.json") == b"{}"
        assert backend.exists("index.d/ab.json")
        assert not backend.exists("index.d/cd.json")

    def test_get_missing_raises_missing_blob(self, backend):
        with pytest.raises(MissingBlobError, match="no blob"):
            backend.get("nope.json")

    def test_get_range_matches_local_slice(self, backend):
        data = bytes(range(256)) * 4
        backend.put("blob.bin", data)
        for start, length in [(0, 16), (100, 33), (1000, 64), (1023, 1)]:
            assert backend.get_range("blob.bin", start, length) == (
                data[start:start + length]
            )

    def test_get_range_past_eof_is_empty(self, backend):
        backend.put("blob.bin", b"short")
        assert backend.get_range("blob.bin", 100, 10) == b""

    def test_get_range_missing_raises_missing_blob(self, backend):
        with pytest.raises(MissingBlobError):
            backend.get_range("nope.bin", 0, 10)

    def test_key_escape_is_rejected(self, backend):
        with pytest.raises(BackendError, match="escapes"):
            backend.get("../outside.txt")

    def test_sibling_prefix_key_is_rejected(self, harness, backend):
        """``../store2/...`` resolves into a sibling whose path starts
        with the root's path as a string; it escapes all the same."""
        sibling = harness.root.parent / f"{harness.root.name}2"
        sibling.mkdir()
        (sibling / "secret").write_bytes(b"secret")
        key = f"../{sibling.name}/secret"
        for op in (
            lambda: backend.get(key),
            lambda: backend.exists(key),
            lambda: backend.put(key, b"overwritten"),
        ):
            with pytest.raises(BackendError, match="escapes"):
                op()
        assert (sibling / "secret").read_bytes() == b"secret"

    def test_read_only_rejects_every_mutation(self, harness):
        ro = harness.make(writable=False)
        for op in (
            lambda: ro.put("k", b"v"),
            lambda: ro.delete("k"),
            lambda: ro.append_line("k", b"v\n"),
        ):
            with pytest.raises(ReadOnlyBackendError, match="read-only"):
                op()

    def test_delete_is_idempotent(self, backend):
        backend.put("journal.jsonl", b"line\n")
        backend.delete("journal.jsonl")
        backend.delete("journal.jsonl")  # missing key: not an error
        assert not backend.exists("journal.jsonl")

    def test_append_line_accumulates(self, backend):
        backend.append_line("journal.jsonl", b"one\n")
        backend.append_line("journal.jsonl", b"two\n")
        assert backend.get("journal.jsonl") == b"one\ntwo\n"

    def test_symlink_out_of_the_root_is_rejected(self, harness, backend):
        """A symlink inside the root that leads outside it escapes all
        the same: reads, probes and writes through it are refused."""
        outside = harness.root.parent / "outside"
        outside.mkdir()
        (outside / "secret").write_bytes(b"secret")
        (harness.root / "link").symlink_to(outside)
        for op in (
            lambda: backend.get("link/secret"),
            lambda: backend.exists("link/secret"),
            lambda: backend.put("link/secret", b"overwritten"),
        ):
            with pytest.raises(BackendError):
                op()
        assert (outside / "secret").read_bytes() == b"secret"

    def test_symlink_within_the_root_is_followed(self, harness, backend):
        backend.put("real/blob", b"bytes")
        (harness.root / "alias").symlink_to(harness.root / "real")
        assert backend.get("alias/blob") == b"bytes"
        assert backend.exists("alias/blob")
        backend.put("alias/other", b"more")
        assert (harness.root / "real" / "other").read_bytes() == b"more"


def _push_entry(cache, tmp_path, files):
    """Push one zlib entry whose install tree holds ``files``."""
    spec = greedy_concretize(make_mock_repo(), "zlib", include_build_deps=False)
    prefix = tmp_path / "build" / "zlib"
    for rel, data in files.items():
        (prefix / rel).parent.mkdir(parents=True, exist_ok=True)
        (prefix / rel).write_bytes(data)
    cache.push(spec, prefix)
    for rel in files:
        (prefix / rel).unlink()
    return spec.dag_hash()


class TestTreeContract:
    def test_list_tree_includes_empty_dirs(self, harness, backend):
        backend.put("blobs/abc/files/lib/libz.so", b"elf")
        backend.put("blobs/abc/meta.json", b"{}")
        (harness.root / "blobs" / "abc" / "files" / "include").mkdir()
        files, dirs = backend.list_tree("blobs/abc")
        assert files == ["files/lib/libz.so", "meta.json"]
        assert "files/include" in dirs

    def test_list_tree_missing_prefix(self, backend):
        with pytest.raises(MissingBlobError, match="no tree"):
            backend.list_tree("blobs/nope")

    def test_tree_exists(self, backend):
        assert not backend.tree_exists("blobs/h")
        backend.put("blobs/h/a", b"1")
        assert backend.tree_exists("blobs/h")

    def test_publish_replaces_previous_tree_completely(self, backend, tmp_path):
        """Publishing an entry is one ``put`` of its bundle: a re-push
        replaces every part of the previous entry — no stale file and
        no stale signature survive."""
        key = SigningKey.generate("publisher")
        signed = BuildCache(backend=backend, name="c", signing_key=key)
        h = _push_entry(signed, tmp_path, {"a": b"1", "stale.txt": b"x"})
        _push_entry(BuildCache(backend=backend, name="c"), tmp_path, {"b": b"2"})
        payload = BuildCache(backend=backend, name="c").fetch(h)
        assert payload.files == {"b": b"2"}
        assert payload.signature is None

    def test_fault_mid_publish_preserves_old_tree(
        self, harness, backend, monkeypatch, tmp_path
    ):
        """old-entry-or-new-entry, over every transport: a re-push dying
        halfway through its upload leaves the previous entry whole and
        verifiable, and the retry goes through."""
        key = SigningKey.generate("publisher")
        cache = BuildCache(backend=backend, name="c", signing_key=key)
        h = _push_entry(cache, tmp_path, {"a": b"old", "meta.txt": b"m1"})
        harness.break_next_put(monkeypatch)
        with pytest.raises(OSError):
            _push_entry(cache, tmp_path, {"a": b"new" * 1000, "meta.txt": b"m2"})
        monkeypatch.undo()

        trusting = BuildCache(backend=backend, name="c", trust=TrustStore([key]))
        payload = trusting.verify_payload(trusting.fetch(h))
        assert payload.files == {"a": b"old", "meta.txt": b"m1"}
        # no temp file left beside the published bundle
        assert sorted(p.name for p in (harness.root / "blobs").iterdir()) == [
            f"{h}.bundle"
        ]

        _push_entry(cache, tmp_path, {"a": b"new", "meta.txt": b"m2"})
        assert cache.fetch(h).files["a"] == b"new"
