"""The storage-backend contract, enforced across every implementation.

One parameterized suite runs the byte-level contract — round trips,
error taxonomy, escape guard, read-only refusal, durable append,
atomic publish — against ``LocalFSBackend``, ``SimulatedRemoteBackend``
and ``HTTPBackend`` talking to a live ``buildcache serve`` process, so
a backend can't drift from the semantics MirrorGroup and BuildCache
were tested against.
"""

import pytest

from repro.buildcache import (
    BackendError,
    HTTPBackend,
    LocalFSBackend,
    MissingBlobError,
    ReadOnlyBackendError,
    SimulatedRemoteBackend,
)
from repro.buildcache.server import start_server


class Harness:
    """One backend implementation under test: builds writable and
    read-only handles over the *same* underlying storage, and knows how
    to make the next publish die mid-stage."""

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

    def break_mid_publish(self, backend, monkeypatch):
        """Arrange for the next publish_tree to die after staging one
        file, using each implementation's own staging seam."""
        calls = {"n": 0}
        if self.kind == "http":
            real = HTTPBackend._stage_part

            def flaky(self, prefix, txn, rel, data):
                calls["n"] += 1
                if calls["n"] == 2:
                    raise OSError("wire cut")
                real(self, prefix, txn, rel, data)

            monkeypatch.setattr(HTTPBackend, "_stage_part", flaky)
        else:
            real = LocalFSBackend._stage_file

            def flaky(self, path, data):
                calls["n"] += 1
                if calls["n"] == 2:
                    raise OSError("disk full")
                real(self, path, data)

            monkeypatch.setattr(LocalFSBackend, "_stage_file", flaky)


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
            lambda: ro.publish_tree("t", {"f": b"v"}),
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


class TestTreeContract:
    def test_list_tree_includes_empty_dirs(self, backend):
        backend.publish_tree(
            "blobs/abc",
            {"files/lib/libz.so": b"elf", "meta.json": b"{}"},
            dirs=["files", "files/lib", "files/include"],
        )
        files, dirs = backend.list_tree("blobs/abc")
        assert files == ["files/lib/libz.so", "meta.json"]
        assert "files/include" in dirs

    def test_list_tree_missing_prefix(self, backend):
        with pytest.raises(MissingBlobError, match="no tree"):
            backend.list_tree("blobs/nope")

    def test_tree_exists(self, backend):
        assert not backend.tree_exists("blobs/h/files")
        backend.publish_tree("blobs/h", {"files/a": b"1"})
        assert backend.tree_exists("blobs/h/files")

    def test_publish_replaces_previous_tree_completely(self, backend):
        backend.publish_tree("blobs/h", {"files/a": b"1", "stale.json": b"x"})
        backend.publish_tree("blobs/h", {"files/b": b"2"})
        files, _ = backend.list_tree("blobs/h")
        assert files == ["files/b"]

    def test_fault_mid_publish_preserves_old_tree(
        self, harness, backend, monkeypatch
    ):
        """old-entry-or-new-entry, over every transport: a publish dying
        after one staged file must leave the previous tree fully
        readable, and the retry must go through."""
        backend.publish_tree(
            "blobs/h", {"files/a": b"old", "meta.json": b"m1"}
        )
        harness.break_mid_publish(backend, monkeypatch)
        with pytest.raises(OSError):
            backend.publish_tree(
                "blobs/h", {"files/a": b"new", "meta.json": b"m2"}
            )
        monkeypatch.undo()

        files, _ = backend.list_tree("blobs/h")
        assert sorted(files) == ["files/a", "meta.json"]
        assert backend.get("blobs/h/files/a") == b"old"
        assert backend.get("blobs/h/meta.json") == b"m1"
        # no staging droppings visible under the published prefix
        leftovers = [p.name for p in (harness.root / "blobs").iterdir()]
        assert leftovers == ["h"]

        backend.publish_tree("blobs/h", {"files/a": b"new", "meta.json": b"m2"})
        assert backend.get("blobs/h/files/a") == b"new"
