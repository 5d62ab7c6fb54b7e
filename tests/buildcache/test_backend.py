"""Storage-backend tests: durable writes, fault simulation."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.buildcache import (
    BackendError,
    LocalFSBackend,
    MissingBlobError,
    ReadOnlyBackendError,
    SimulatedRemoteBackend,
    TransientBackendError,
)
from repro.buildcache.backend import fsync_write


class TestLocalFSBackend:
    def test_put_get_round_trip(self, tmp_path):
        backend = LocalFSBackend(tmp_path)
        backend.put("index.d/ab.json", b"{}")
        assert backend.get("index.d/ab.json") == b"{}"
        assert backend.exists("index.d/ab.json")
        assert not backend.exists("index.d/cd.json")

    def test_get_missing_raises_missing_blob(self, tmp_path):
        with pytest.raises(MissingBlobError, match="no blob"):
            LocalFSBackend(tmp_path).get("nope.json")

    def test_put_leaves_no_tmp_droppings(self, tmp_path):
        backend = LocalFSBackend(tmp_path)
        backend.put("meta.json", b"one")
        backend.put("meta.json", b"two")
        assert backend.get("meta.json") == b"two"
        assert [p.name for p in tmp_path.iterdir()] == ["meta.json"]

    def test_key_escape_is_rejected(self, tmp_path):
        backend = LocalFSBackend(tmp_path / "cache")
        with pytest.raises(BackendError, match="escapes"):
            backend.get("../outside.txt")

    def test_delete_is_idempotent(self, tmp_path):
        backend = LocalFSBackend(tmp_path)
        backend.put("journal.jsonl", b"line\n")
        backend.delete("journal.jsonl")
        backend.delete("journal.jsonl")  # missing key: not an error
        assert not backend.exists("journal.jsonl")

    def test_append_line_accumulates(self, tmp_path):
        backend = LocalFSBackend(tmp_path)
        backend.append_line("journal.jsonl", b"one\n")
        backend.append_line("journal.jsonl", b"two\n")
        assert backend.get("journal.jsonl") == b"one\ntwo\n"

    def test_list_tree_includes_empty_dirs(self, tmp_path):
        backend = LocalFSBackend(tmp_path)
        backend.put("blobs/abc/files/lib/libz.so", b"elf")
        backend.put("blobs/abc/meta.json", b"{}")
        (tmp_path / "blobs" / "abc" / "files" / "include").mkdir()
        files, dirs = backend.list_tree("blobs/abc")
        assert files == ["files/lib/libz.so", "meta.json"]
        assert "files/include" in dirs

    def test_list_tree_missing_prefix(self, tmp_path):
        with pytest.raises(MissingBlobError, match="no tree"):
            LocalFSBackend(tmp_path).list_tree("blobs/nope")

    def test_read_only_rejects_writes(self, tmp_path):
        backend = LocalFSBackend(tmp_path, writable=False)
        for op in (
            lambda: backend.put("k", b"v"),
            lambda: backend.delete("k"),
            lambda: backend.append_line("k", b"v\n"),
        ):
            with pytest.raises(ReadOnlyBackendError, match="read-only"):
                op()

    def test_concurrent_puts_of_one_key_never_tear(self, tmp_path):
        """Writers of one key race (a bundle re-pushed by two clients of
        one server): every put succeeds and the key ends up holding one
        writer's bytes, whole."""
        import threading

        backend = LocalFSBackend(tmp_path)
        values = [bytes([65 + i]) * 65536 for i in range(8)]
        errors = []

        def writer(value):
            try:
                for _ in range(20):
                    backend.put("blobs/h.bundle", value)
            except Exception as e:  # noqa: BLE001 - reported below
                errors.append(e)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(v,)) for v in values]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert backend.get("blobs/h.bundle") in values
        assert [p.name for p in (tmp_path / "blobs").iterdir()] == ["h.bundle"]

    def test_fsync_write_replaces_atomically(self, tmp_path):
        target = tmp_path / "shard.json"
        fsync_write(target, b"old")
        fsync_write(target, b"new")
        assert target.read_bytes() == b"new"
        assert list(tmp_path.iterdir()) == [target]  # no temp file left


class TestSimulatedRemoteBackend:
    def make(self, tmp_path, **kwargs):
        inner = LocalFSBackend(tmp_path, name="inner")
        return SimulatedRemoteBackend(inner, name="sim", **kwargs)

    def test_delegates_and_counts_ops(self, tmp_path):
        sim = self.make(tmp_path)
        sim.put("k", b"v")
        assert sim.get("k") == b"v"
        assert sim.op_counts == {"put": 1, "get": 1}

    def test_fail_queue_raises_then_recovers(self, tmp_path):
        sim = self.make(tmp_path)
        sim.put("k", b"v")
        sim.fail("get", times=2)
        for _ in range(2):
            with pytest.raises(TransientBackendError, match="timeout"):
                sim.get("k")
        assert sim.get("k") == b"v"  # faults exhausted

    def test_fail_accepts_error_class(self, tmp_path):
        sim = self.make(tmp_path)
        sim.fail("get", error=MissingBlobError)
        with pytest.raises(MissingBlobError):
            sim.get("k")

    def test_drop_hides_present_blobs(self, tmp_path):
        sim = self.make(tmp_path)
        sim.put("blobs/h/files/a", b"v")
        sim.drop("blobs/h")
        assert not sim.exists("blobs/h/files/a")
        assert not sim.tree_exists("blobs/h/files")
        with pytest.raises(MissingBlobError):
            sim.get("blobs/h/files/a")

    def test_read_only_mode(self, tmp_path):
        sim = self.make(tmp_path, read_only=True)
        assert not sim.writable
        with pytest.raises(ReadOnlyBackendError, match="read-only"):
            sim.put("k", b"v")

    def test_latency_is_applied(self, tmp_path):
        import time

        sim = self.make(tmp_path, latency_per_op={"get": 0.01})
        sim.put("k", b"v")
        start = time.monotonic()
        sim.get("k")
        assert time.monotonic() - start >= 0.01


class TestAppendDurability:
    def test_first_append_survives_hard_process_kill(self, tmp_path):
        """The journal-creation durability gap: ``append_line`` fsyncs
        the file, but when the append *creates* the journal the parent
        directory's entry table must be fsynced too — otherwise a crash
        right after the first push can lose the whole file.  Kill the
        appending process with ``os._exit`` (no atexit, no interpreter
        shutdown, nothing) and the line must still be there."""
        script = f"""
import os
from repro.buildcache import LocalFSBackend

backend = LocalFSBackend({str(tmp_path / "cache")!r})
backend.append_line("journal.jsonl", b'{{"op": "push"}}\\n')
os._exit(9)  # die immediately after the *creating* append
"""
        env = dict(os.environ)
        src_dir = Path(__file__).resolve().parents[2] / "src"
        env["PYTHONPATH"] = f"{src_dir}:{env.get('PYTHONPATH', '')}"
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 9, proc.stderr
        journal = tmp_path / "cache" / "journal.jsonl"
        assert journal.exists()
        assert journal.read_bytes() == b'{"op": "push"}\n'
        # and the reopened backend reads it back through the contract
        assert LocalFSBackend(tmp_path / "cache").get("journal.jsonl") == (
            b'{"op": "push"}\n'
        )
