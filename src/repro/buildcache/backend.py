"""Storage backends: the byte-level seam under the buildcache.

A :class:`BuildCache` is logically "an index plus a blob store"; this
module makes the *where the bytes live* part pluggable.  Everything the
cache and its :class:`~repro.buildcache.index.ShardedIndex` persist
goes through a :class:`StorageBackend` keyed by posix-relative strings
(``"index.json"``, ``"index.d/ab.json"``, ``"blobs/<hash>.bundle"``)
instead of touching ``Path`` directly — the substitutes model of Guix,
where a binary mirror is an unreliable remote service, not a trusted
local disk.

Two implementations ship:

* :class:`LocalFSBackend` — the classic directory layout.  Every write
  is atomic **and durable**: data is written to a temp file, fsynced,
  renamed over the target, and the containing directory is fsynced.
  (The old ``_atomic_write`` helpers renamed without any fsync — a
  crash shortly after could surface an empty shard or manifest on
  common filesystems, defeating the fsynced journal one line away.)
* :class:`SimulatedRemoteBackend` — wraps any backend with per-op
  latency, injectable faults (timeouts, missing blobs), and a
  read-only mode, so mirror fallback and retry behaviour can be
  exercised deterministically in tests and benchmarks.

A cache entry is one object (a signed bundle, see
:mod:`repro.buildcache.cache`), so the atomic+durable :meth:`StorageBackend.
put` is all an interrupted ``push`` needs: a re-push that dies mid-write
leaves the previous entry fully intact (old-entry-or-new-entry, never a
signed manifest over a partial payload).

Error taxonomy (all subclasses of :class:`BuildCacheError`, which lives
here — the lowest-level buildcache module — so every layer above can
raise and catch it without import cycles):

* :class:`MissingBlobError` — the key does not exist; the per-key
  analogue of ``FileNotFoundError``.
* :class:`TransientBackendError` — timeouts and flaky-network faults;
  the only error class :class:`~repro.buildcache.mirror.MirrorGroup`
  retries before falling through to the next mirror.
* :class:`ReadOnlyBackendError` — a write hit a read-only mirror.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

__all__ = [
    "BuildCacheError",
    "BackendError",
    "MissingBlobError",
    "TransientBackendError",
    "ReadOnlyBackendError",
    "StorageBackend",
    "LocalFSBackend",
    "SimulatedRemoteBackend",
    "fsync_write",
]


class BuildCacheError(RuntimeError):
    """Raised for corrupt, missing, unsigned, or untrusted cache state."""


class BackendError(BuildCacheError):
    """Raised when a storage backend operation fails."""


class MissingBlobError(BackendError):
    """The requested key does not exist in the backend."""


class TransientBackendError(BackendError):
    """A retryable fault (timeout, flaky connection).  MirrorGroup
    retries these with backoff before degrading to the next mirror."""


class ReadOnlyBackendError(BackendError):
    """A write was attempted against a read-only backend."""


def _fsync_dir(path: Path) -> None:
    """Flush a directory entry table (best effort: not every filesystem
    supports opening directories, and a failure here only weakens
    durability back to the pre-fsync behaviour)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def fsync_write(path: Path, data: bytes) -> None:
    """Atomically and durably replace ``path`` with ``data``.

    tmp write -> fsync(tmp) -> rename -> fsync(parent dir).  Readers
    see the old bytes or the new bytes, and once this returns the new
    bytes survive a crash — the contract both the index shards and the
    entry manifests rely on (the journal alone was fsynced before).
    """
    # one temp file per writer: two writers of one key (two server
    # threads, two publishers) must never rename each other's half
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        # a write that fails leaves the old bytes and no temp file
        tmp.unlink(missing_ok=True)
        raise
    _fsync_dir(path.parent)


class StorageBackend:
    """Byte storage under posix-relative string keys.

    Implementations must make :meth:`put` atomic+durable; everything
    else is plain KV.  ``writable=False`` backends raise
    :class:`ReadOnlyBackendError` from every mutating method.
    """

    #: short human label used in spans, counters, and error messages
    name: str = "backend"
    writable: bool = True

    # -- reads ---------------------------------------------------------
    def get(self, key: str) -> bytes:
        """The bytes at ``key``; :class:`MissingBlobError` if absent."""
        raise NotImplementedError

    def get_range(self, key: str, start: int, length: int) -> bytes:
        """``length`` bytes of ``key`` starting at offset ``start``
        (shorter at EOF, empty past it) — the partial-blob-fetch seam.

        The default reads the whole blob and slices; remote backends
        override it with a real ranged read (``Range:`` header) so a
        consumer inspecting the head of a large payload never pays for
        the tail.
        """
        data = self.get(key)
        return data[start:start + length]

    def exists(self, key: str) -> bool:
        raise NotImplementedError

    def tree_exists(self, prefix: str) -> bool:
        """Does anything (even an empty directory) live under
        ``prefix``?"""
        raise NotImplementedError

    def list_tree(self, prefix: str) -> Tuple[List[str], List[str]]:
        """``(files, dirs)`` under ``prefix``, as sorted relative posix
        paths (dirs includes empty directories)."""
        raise NotImplementedError

    # -- writes --------------------------------------------------------
    def put(self, key: str, data: bytes) -> None:
        """Atomically + durably write ``data`` at ``key``."""
        raise NotImplementedError

    def delete(self, key: str) -> None:
        """Remove ``key`` (missing keys are not an error)."""
        raise NotImplementedError

    def append_line(self, key: str, line: bytes) -> None:
        """Durably append one line to ``key`` (the journal contract:
        fsynced before return, created if absent)."""
        raise NotImplementedError

    # -- description ---------------------------------------------------
    def describe(self) -> str:
        """Display string for spans and error messages."""
        return self.name

    def _require_writable(self) -> None:
        if not self.writable:
            raise ReadOnlyBackendError(f"backend {self.describe()} is read-only")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"


class LocalFSBackend(StorageBackend):
    """The on-disk directory layout, with durable atomic writes."""

    def __init__(self, root, name: Optional[str] = None, writable: bool = True):
        self.root = Path(root)
        self.name = name or self.root.name or str(self.root)
        self.writable = writable
        self.root.mkdir(parents=True, exist_ok=True)
        self._resolved_root = self.root.resolve()
        #: what every path under the root starts with: a sibling such as
        #: ``cache2`` shares ``cache``'s string prefix, not this one
        self._under_root = os.path.join(str(self._resolved_root), "")

    def _path(self, key: str) -> Path:
        """The file ``key`` names.  The key is checked lexically (no
        empty, ``.`` or ``..`` parts), and the path is resolved only
        when a component under the resolved root is a symlink, which
        must not lead out of the root."""
        parts = key.split("/")
        if "\0" in key or any(part in ("", ".", "..") for part in parts):
            raise BackendError(f"key {key!r} escapes backend root {self.root}")
        root = probe = str(self._resolved_root)
        for part in parts:
            probe = f"{probe}/{part}"
            if os.path.islink(probe):
                resolved = os.path.realpath(os.path.join(root, *parts))
                if resolved != root and not resolved.startswith(self._under_root):
                    raise BackendError(
                        f"key {key!r} escapes backend root {self.root}"
                    )
                return Path(resolved)
        return Path(probe)

    # -- reads ---------------------------------------------------------
    def get(self, key: str) -> bytes:
        try:
            return self._path(key).read_bytes()
        except FileNotFoundError:
            raise MissingBlobError(
                f"{self.describe()}: no blob at {key!r}"
            ) from None
        except OSError as e:
            raise BackendError(f"{self.describe()}: cannot read {key!r}: {e}") from e

    def get_range(self, key: str, start: int, length: int) -> bytes:
        try:
            with open(self._path(key), "rb") as fh:
                fh.seek(start)
                return fh.read(length)
        except FileNotFoundError:
            raise MissingBlobError(
                f"{self.describe()}: no blob at {key!r}"
            ) from None
        except OSError as e:
            raise BackendError(f"{self.describe()}: cannot read {key!r}: {e}") from e

    def exists(self, key: str) -> bool:
        return self._path(key).is_file()

    def tree_exists(self, prefix: str) -> bool:
        return self._path(prefix).is_dir()

    def list_tree(self, prefix: str) -> Tuple[List[str], List[str]]:
        root = self._path(prefix)
        if not root.is_dir():
            raise MissingBlobError(f"{self.describe()}: no tree at {prefix!r}")
        files: List[str] = []
        dirs: List[str] = []
        for path in sorted(root.rglob("*")):
            rel = path.relative_to(root).as_posix()
            if path.is_dir():
                dirs.append(rel)
            elif path.is_file():
                files.append(rel)
        return files, dirs

    # -- writes --------------------------------------------------------
    def put(self, key: str, data: bytes) -> None:
        self._require_writable()
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fsync_write(path, data)

    def delete(self, key: str) -> None:
        self._require_writable()
        try:
            self._path(key).unlink()
        except FileNotFoundError:
            pass

    def append_line(self, key: str, line: bytes) -> None:
        self._require_writable()
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        created = not path.exists()
        with open(path, "ab") as fh:
            fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())
        if created:
            # the first append *creates* the journal: without flushing
            # the parent's entry table a crash can lose the whole file
            # despite the fsynced data above (fsync_write already does
            # this for renames; creation needs it just the same)
            _fsync_dir(path.parent)

    def describe(self) -> str:
        return str(self.root)


class SimulatedRemoteBackend(StorageBackend):
    """Any backend, made remote-shaped: latency, faults, read-only.

    * ``latency`` — seconds slept before every operation (one simulated
      round-trip); ``latency_per_op`` overrides individual ops, e.g.
      ``{"get": 0.05}``.
    * :meth:`fail` — queue deterministic faults: the next ``times``
      calls of ``op`` raise ``error`` (an exception instance or class).
      The default :class:`TransientBackendError` models a timeout.
    * :meth:`drop` — keys (or key prefixes) that report missing even
      though the inner backend holds them: the "index says yes, blob
      fetch 404s" mirror pathology.
    * ``read_only`` — every mutating op raises
      :class:`ReadOnlyBackendError`.

    ``op_counts`` tallies operations per name so tests and benchmarks
    can assert how many round-trips a code path cost.
    """

    def __init__(
        self,
        inner: StorageBackend,
        name: Optional[str] = None,
        latency: float = 0.0,
        latency_per_op: Optional[Dict[str, float]] = None,
        read_only: bool = False,
    ):
        self.inner = inner
        self.name = name or f"sim:{inner.name}"
        self.latency = latency
        self.latency_per_op = dict(latency_per_op or {})
        self.read_only = read_only
        self.op_counts: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._faults: Dict[str, List[BaseException]] = {}
        self._dropped: List[str] = []

    @property
    def writable(self) -> bool:  # type: ignore[override]
        return not self.read_only and self.inner.writable

    # -- simulation controls ------------------------------------------
    def fail(self, op: str, error=None, times: int = 1) -> None:
        """Make the next ``times`` calls of ``op`` raise ``error``."""
        if error is None:
            error = TransientBackendError(
                f"{self.describe()}: simulated timeout in {op}"
            )
        if isinstance(error, type):
            error = error(f"{self.describe()}: simulated {op} failure")
        with self._lock:
            self._faults.setdefault(op, []).extend([error] * times)

    def drop(self, key_prefix: str) -> None:
        """Report ``key_prefix`` (a key or a whole subtree) missing."""
        with self._lock:
            self._dropped.append(key_prefix)

    def _is_dropped(self, key: str) -> bool:
        with self._lock:
            dropped = list(self._dropped)
        return any(
            key == d or key.startswith(d.rstrip("/") + "/") for d in dropped
        )

    def _enter(self, op: str) -> None:
        with self._lock:
            self.op_counts[op] = self.op_counts.get(op, 0) + 1
            queued = self._faults.get(op)
            fault = queued.pop(0) if queued else None
        delay = self.latency_per_op.get(op, self.latency)
        if delay > 0:
            time.sleep(delay)
        if fault is not None:
            raise fault

    def _enter_write(self, op: str) -> None:
        self._enter(op)
        if self.read_only:
            raise ReadOnlyBackendError(
                f"mirror backend {self.describe()} is read-only"
            )

    # -- reads ---------------------------------------------------------
    def get(self, key: str) -> bytes:
        self._enter("get")
        if self._is_dropped(key):
            raise MissingBlobError(f"{self.describe()}: no blob at {key!r}")
        return self.inner.get(key)

    def get_range(self, key: str, start: int, length: int) -> bytes:
        self._enter("get_range")
        if self._is_dropped(key):
            raise MissingBlobError(f"{self.describe()}: no blob at {key!r}")
        return self.inner.get_range(key, start, length)

    def exists(self, key: str) -> bool:
        self._enter("exists")
        if self._is_dropped(key):
            return False
        return self.inner.exists(key)

    def tree_exists(self, prefix: str) -> bool:
        self._enter("tree_exists")
        if self._is_dropped(prefix):
            return False
        return self.inner.tree_exists(prefix)

    def list_tree(self, prefix: str) -> Tuple[List[str], List[str]]:
        self._enter("list_tree")
        if self._is_dropped(prefix):
            raise MissingBlobError(f"{self.describe()}: no tree at {prefix!r}")
        files, dirs = self.inner.list_tree(prefix)
        files = [f for f in files if not self._is_dropped(f"{prefix}/{f}")]
        return files, dirs

    # -- writes --------------------------------------------------------
    def put(self, key: str, data: bytes) -> None:
        self._enter_write("put")
        self.inner.put(key, data)

    def delete(self, key: str) -> None:
        self._enter_write("delete")
        self.inner.delete(key)

    def append_line(self, key: str, line: bytes) -> None:
        self._enter_write("append_line")
        self.inner.append_line(key, line)

    def describe(self) -> str:
        return f"{self.name}({self.inner.describe()})"
