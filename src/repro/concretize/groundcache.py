"""Ground-program caching.

Grounding dominates concretization cost ("Using Answer Set Programming
for HPC Dependency Solving" measures the same bottleneck in clingo), so
this module lets an exactly repeated solve skip it: a
:class:`GroundProgramCache` memoizes whole ground programs keyed on the
*(logic digest, repo content digest, reuse-set digest, request digest)*
tuple, in process and on disk (``REPRO_GROUND_CACHE_DIR``).  Disk
entries are published atomically via :func:`fsync_write` with a
digest-stamped JSON sidecar that is verified before unpickling;
anything stale, truncated, or foreign is ignored and counted
(``concretize.ground_cache_stale``) — the same *accelerate, never lie*
contract as the buildcache index summaries.

The cache is **off by default**: a fresh solve per ``Concretizer`` is
what the paper's figure benches time, and a silently shared cache would
corrupt those comparisons.  Opt in per instance (``ground_cache=``) or
by pointing ``REPRO_GROUND_CACHE_DIR`` at a directory.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import pickle
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..buildcache.backend import fsync_write
from ..obs import metrics
from ..spec import Spec

__all__ = [
    "CACHE_FORMAT",
    "ENV_CACHE_DIR",
    "GroundCacheEntry",
    "GroundProgramCache",
    "cache_key",
    "default_cache",
    "logic_digest",
    "package_digest",
    "repo_digest",
    "request_digest",
    "reuse_digest",
    "reset_ground_caches",
]

logger = logging.getLogger(__name__)

#: on-disk entry layout version; bump on any incompatible change
CACHE_FORMAT = 1

ENV_CACHE_DIR = "REPRO_GROUND_CACHE_DIR"

LOGIC_DIR = Path(__file__).parent / "logic"


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------
def _sha(parts: Iterable[str]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8", "surrogateescape"))
        h.update(b"\x00")
    return h.hexdigest()


def _spec_repr(spec: Optional[Spec]) -> str:
    """Canonical description of an (abstract or concrete) spec DAG —
    everything the encoder reads: node constraints, edges, and hash
    prefixes.  Stable across processes (no ids, no object addresses)."""
    if spec is None:
        return "-"
    parts: List[str] = []
    for node in spec.traverse():
        parts.append(
            "|".join(
                (
                    str(node.name),
                    str(node.versions),
                    str(node.variants),
                    str(node.os),
                    str(node.target),
                    str(node.abstract_hash),
                )
            )
        )
        for edge in node.edges():
            parts.append(
                f">{node.name}->{edge.spec.name}"
                f":{','.join(sorted(edge.deptypes))}"
                f":{getattr(edge, 'virtual', False)}"
            )
    return ";".join(parts)


def _decl_repr(decl) -> str:
    parts = [type(decl).__name__]
    for field in dataclasses.fields(decl):
        value = getattr(decl, field.name)
        if isinstance(value, Spec):
            value = _spec_repr(value)
        parts.append(f"{field.name}={value}")
    return "|".join(parts)


def package_digest(pkg_cls) -> str:
    """Content digest of one package class, cached on the class itself
    (``__dict__``-scoped so subclasses never inherit a stale digest).
    Directives are declared at class-creation time and never mutated, so
    caching is safe even though repositories themselves can grow."""
    cached = pkg_cls.__dict__.get("_repro_content_digest")
    if cached is not None:
        return cached
    parts = [str(pkg_cls.name), str(bool(pkg_cls.buildable))]
    parts.extend(str(v) for v in pkg_cls.declared_versions())
    for attr in (
        "variant_decls",
        "dependency_decls",
        "provides_decls",
        "conflict_decls",
        "requires_decls",
        "can_splice_decls",
    ):
        parts.extend(_decl_repr(d) for d in getattr(pkg_cls, attr, ()))
    digest = _sha(parts)
    pkg_cls._repro_content_digest = digest
    return digest


def repo_digest(repo) -> str:
    """Content digest of a repository *as the encoder sees it*:
    per-package digests in iteration order (condition/vset ids are
    order-dependent) plus provider preferences.  Computed fresh per
    solve — repositories are mutable (``add_mpiabi_replicas``,
    ``provider_preferences``) — but each package class digest is cached,
    so this is O(len(repo)) dict lookups."""
    parts: List[str] = []
    for pkg_cls in repo:
        parts.append(package_digest(pkg_cls))
    parts.append(
        json.dumps(
            {k: list(v) for k, v in sorted(repo.provider_preferences.items())}
        )
    )
    return _sha(parts)


_LOGIC_DIGESTS: Dict[Tuple[str, ...], str] = {}


def logic_digest(names: Sequence[str]) -> str:
    """Digest of the named logic programs (bytes on disk).  The files
    ship with the package and never change within a process."""
    key = tuple(names)
    digest = _LOGIC_DIGESTS.get(key)
    if digest is None:
        h = hashlib.sha256()
        for name in names:
            h.update(name.encode())
            h.update(b"\x00")
            h.update((LOGIC_DIR / name).read_bytes())
        digest = h.hexdigest()
        _LOGIC_DIGESTS[key] = digest
    return digest


def reuse_digest(hashes: Iterable[str]) -> str:
    """Digest of a reuse set given its node DAG hashes.  Prefer a
    precomputed index digest (``ShardedIndex.content_digest()``) when
    the specs come straight from a buildcache — that one is O(1)."""
    return _sha(sorted(hashes))


def request_digest(
    roots: Sequence[Spec],
    forbidden: Sequence[str],
    default_os: str,
    default_target: str,
    encoding: str,
    splicing: bool,
) -> str:
    parts = [_spec_repr(root) for root in roots]
    parts.append("forbidden:" + ",".join(forbidden))
    parts.append(f"os:{default_os}")
    parts.append(f"target:{default_target}")
    parts.append(f"encoding:{encoding}")
    parts.append(f"splicing:{splicing}")
    return _sha(parts)


def cache_key(
    logic: str, repo: str, reuse: str, request: str
) -> str:
    """Compose the exact solve key the ground cache is addressed by."""
    return _sha((logic, repo, reuse, request))


# ----------------------------------------------------------------------
# exact-key ground-program cache
# ----------------------------------------------------------------------
class GroundCacheEntry:
    """One memoized ground program plus solve metadata."""

    __slots__ = ("ground_program", "meta")

    def __init__(self, ground_program, meta: Dict):
        self.ground_program = ground_program
        self.meta = meta


class GroundProgramCache:
    """Bounded in-process LRU over ground programs, with an optional
    disk layer.

    Counters: ``concretize.ground_cache_hits`` / ``_misses`` on every
    :meth:`get`, ``concretize.ground_cache_stale`` for every on-disk
    entry that existed but failed validation (truncated payload, digest
    mismatch, foreign key, bad sidecar) — such entries are *ignored*,
    never trusted, and the solve falls back to grounding from scratch.
    """

    def __init__(self, directory=None, max_memory_entries: int = 8):
        self.directory = Path(directory) if directory else None
        self.max_memory_entries = max_memory_entries
        self._mem: "OrderedDict[str, GroundCacheEntry]" = OrderedDict()
        self._lock = threading.Lock()

    # -- lookup --------------------------------------------------------
    def get(self, key: str) -> Optional[GroundCacheEntry]:
        with self._lock:
            entry = self._mem.get(key)
            if entry is not None:
                self._mem.move_to_end(key)
        if entry is None and self.directory is not None:
            entry = self._load_disk(key)
            if entry is not None:
                self._remember(key, entry)
        if entry is not None:
            metrics.inc("concretize.ground_cache_hits")
        else:
            metrics.inc("concretize.ground_cache_misses")
        return entry

    def put(self, key: str, ground_program, meta: Dict) -> GroundCacheEntry:
        entry = GroundCacheEntry(ground_program, dict(meta))
        self._remember(key, entry)
        if self.directory is not None:
            self._store_disk(key, entry)
        return entry

    def _remember(self, key: str, entry: GroundCacheEntry) -> None:
        with self._lock:
            self._mem[key] = entry
            self._mem.move_to_end(key)
            while len(self._mem) > self.max_memory_entries:
                self._mem.popitem(last=False)

    # -- disk layer ----------------------------------------------------
    def _paths(self, key: str) -> Tuple[Path, Path]:
        base = self.directory / f"ground-{key}"
        return base.with_suffix(".pkl"), base.with_suffix(".json")

    def _stale(self, key: str, reason: str) -> None:
        metrics.inc("concretize.ground_cache_stale")
        logger.warning("ignoring ground-cache entry %s: %s", key[:12], reason)

    def _load_disk(self, key: str) -> Optional[GroundCacheEntry]:
        payload_path, sidecar_path = self._paths(key)
        payload_exists = payload_path.exists()
        sidecar_exists = sidecar_path.exists()
        if not payload_exists and not sidecar_exists:
            return None  # plain miss, not corruption
        if not payload_exists or not sidecar_exists:
            self._stale(key, "payload/sidecar pair incomplete")
            return None
        try:
            sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            self._stale(key, f"unreadable sidecar ({exc})")
            return None
        if not isinstance(sidecar, dict) or sidecar.get("format") != CACHE_FORMAT:
            self._stale(key, f"unsupported format {sidecar!r:.40}")
            return None
        if sidecar.get("key") != key:
            self._stale(key, "sidecar stamped for a different solve key")
            return None
        try:
            payload = payload_path.read_bytes()
        except OSError as exc:
            self._stale(key, f"unreadable payload ({exc})")
            return None
        if hashlib.sha256(payload).hexdigest() != sidecar.get("sha256"):
            self._stale(key, "payload digest mismatch")
            return None
        try:
            # digest verified above, so these are bytes we wrote ourselves
            ground_program = pickle.loads(payload)
        except Exception as exc:  # corrupt-but-digest-matching is hostile
            self._stale(key, f"unpicklable payload ({exc})")
            return None
        meta = sidecar.get("meta")
        return GroundCacheEntry(
            ground_program, meta if isinstance(meta, dict) else {}
        )

    def _store_disk(self, key: str, entry: GroundCacheEntry) -> None:
        payload_path, sidecar_path = self._paths(key)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            payload = pickle.dumps(
                entry.ground_program, protocol=pickle.HIGHEST_PROTOCOL
            )
            sidecar = {
                "format": CACHE_FORMAT,
                "key": key,
                "sha256": hashlib.sha256(payload).hexdigest(),
                "meta": entry.meta,
            }
            # payload first, digest-stamped sidecar last: a reader that
            # sees the sidecar can always validate the payload it names
            fsync_write(payload_path, payload)
            fsync_write(
                sidecar_path, json.dumps(sidecar, sort_keys=True).encode()
            )
        except (OSError, pickle.PicklingError) as exc:
            # the cache accelerates; failing to persist must never fail
            # the solve itself
            logger.warning("could not persist ground-cache entry: %s", exc)


_CACHES: Dict[str, GroundProgramCache] = {}
_CACHES_LOCK = threading.Lock()


def default_cache() -> Optional[GroundProgramCache]:
    """The environment-configured process cache, or None (default off).

    ``REPRO_GROUND_CACHE_DIR`` enables memory + disk.  Instances are
    shared per directory so separate Concretizers see each other's
    entries.
    """
    directory = os.environ.get(ENV_CACHE_DIR)
    if not directory:
        return None
    with _CACHES_LOCK:
        cache = _CACHES.get(directory)
        if cache is None:
            cache = GroundProgramCache(directory)
            _CACHES[directory] = cache
        return cache


def reset_ground_caches() -> None:
    """Drop every process-level cache (tests)."""
    with _CACHES_LOCK:
        _CACHES.clear()
