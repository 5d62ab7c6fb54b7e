"""The binary buildcache: signed, indexed, content-addressed artifacts.

This is the distribution substrate of Section 2/6 of the paper.  A
cache maps every concrete spec's ``dag_hash`` to the payload tree that
was installed at some build-machine prefix, plus enough metadata to
relocate that payload into any consumer store.

On-disk layout (one directory per cache)::

    <cache>/
      index.json                  -- manifest of shards (format v3)
      index.sum.json              -- exact per-shard hash tables
      index.d/<pp>.json           -- per-hash-prefix index shards
      journal.jsonl               -- pushes not yet folded into shards
      blobs/<dag_hash>.bundle     -- one cache entry, one object

The *index* answers "which specs does this mirror serve" without
touching any blob (what Spack's ``index.json`` does for a mirror) and
is sharded by hash prefix so single-spec lookups parse one shard, not
20k specs (see :mod:`repro.buildcache.index`).

A **bundle** is a whole cache entry in one object, like a Guix
substitute: a head line, then the payload files' bytes back to back::

    {"format":1,"manifest":{...},"meta":{...},"signature":{...}}\n
    <bytes of each manifest file, in the manifest's order>

The *meta* records the prefixes needed for relocation; the *manifest*
records the meta digest, each payload file's size and sha256, and the
payload's directories; the *signature* (``null`` in an unsigned cache)
is an HMAC over the manifest (see :mod:`repro.buildcache.signing`).
Every JSON part uses one canonical form, and a reader ignores no byte:
a head that is not byte-identical to its canonical form, sizes that do
not add up to the bundle's length, and trailing bytes are all rejected,
so any single-byte change to a signed bundle fails verification.

The extract path is staged — :meth:`BuildCache.fetch` (one backend
``get``), :meth:`BuildCache.verify_payload` (signature + digests over
those bytes, no backend call), :meth:`BuildCache.extract_payload`
(relocate + write) — so the installer's fetch pipeline can overlap the
stages of independent DAG nodes; :meth:`BuildCache.extract` composes
all three for the serial callers.

All storage I/O goes through a :class:`~repro.buildcache.backend.
StorageBackend` (a local directory by default), so the same cache
logic runs against a simulated flaky remote or an HTTP server, and
several caches compose into an ordered mirror list via
:class:`~repro.buildcache.mirror.MirrorGroup`.  A push writes the
bundle with one atomic, durable ``put``, so an interrupted re-push
leaves the previous entry fully intact — never a signed manifest over
a partial payload.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional

from ..obs import metrics, trace
from ..spec import Spec
from .backend import (
    LocalFSBackend,
    MissingBlobError,
    ReadOnlyBackendError,
    StorageBackend,
)
from .index import BuildCacheError, ShardedIndex

if TYPE_CHECKING:
    from .signing import SigningKey, TrustStore

__all__ = [
    "BuildCache",
    "BuildCacheError",
    "CachedPayload",
]

logger = logging.getLogger(__name__)

INDEX_NAME = "index.json"
BUNDLE_FORMAT = 1
BUNDLE_SUFFIX = ".bundle"

#: the exact keys of a bundle head, its manifest, and a manifest file entry
_HEAD_KEYS = {"format", "manifest", "meta", "signature"}
_MANIFEST_KEYS = {"dirs", "files", "hash", "meta"}
_FILE_KEYS = {"sha256", "size"}


def _canonical(document) -> bytes:
    """The one serialization of every JSON part of a bundle: sorted
    keys, no whitespace, ASCII only (so it never holds a newline)."""
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _relative(path) -> bool:
    """Is ``path`` a plain relative posix path that stays in its root?"""
    return (
        isinstance(path, str)
        and all(part not in ("", ".", "..") for part in path.split("/"))
    )


@dataclass
class CachedPayload:
    """One cache entry in memory: manifest, signature, meta and payload."""

    dag_hash: str
    meta: dict
    #: payload-relative posix path -> file bytes
    files: Dict[str, bytes] = field(default_factory=dict)
    #: payload-relative posix paths of directories (preserves empty dirs)
    dirs: List[str] = field(default_factory=list)
    #: ``{"hash", "meta": sha256, "files": {path: {"sha256", "size"}},
    #: "dirs"}``: everything extraction uses, under the signature
    manifest: dict = field(default_factory=dict)
    #: the publisher's signature over the canonical manifest, or None
    signature: Optional[dict] = None
    #: set by :meth:`BuildCache.verify_payload`
    verified: bool = False
    #: label of the cache/mirror that served this payload (attribution
    #: in the installer's fetch pipeline and MirrorGroup fallback)
    source: Optional[str] = None

    @property
    def size(self) -> int:
        return sum(len(data) for data in self.files.values())

    def manifest_bytes(self) -> bytes:
        """The bytes the signature covers: the canonical manifest."""
        return _canonical(self.manifest)

    def to_bundle(self) -> bytes:
        """The entry as one bundle (see the module docstring)."""
        head = {
            "format": BUNDLE_FORMAT,
            "manifest": self.manifest,
            "meta": self.meta,
            "signature": self.signature,
        }
        files = [self.files[rel] for rel in sorted(self.manifest["files"])]
        return b"".join([_canonical(head), b"\n"] + files)

    @classmethod
    def from_bundle(cls, dag_hash: str, data: bytes) -> "CachedPayload":
        """Parse a bundle, ignoring no byte; :class:`BuildCacheError`
        for anything that is not exactly what :meth:`to_bundle` writes
        for ``dag_hash``."""
        try:
            return cls._parse(dag_hash, data)
        except ValueError as e:  # JSON, UTF-8 and structure errors alike
            raise BuildCacheError(
                f"cache entry {dag_hash} has a corrupt bundle: {e}"
            ) from None

    @classmethod
    def _parse(cls, dag_hash: str, data: bytes) -> "CachedPayload":
        end = data.find(b"\n")
        if end < 0:
            raise ValueError("no head line")
        head = json.loads(data[:end])
        if not isinstance(head, dict) or set(head) != _HEAD_KEYS:
            raise ValueError(f"the head does not hold exactly {sorted(_HEAD_KEYS)}")
        if _canonical(head) != data[:end]:
            raise ValueError("the head is not in canonical form")
        if type(head["format"]) is not int or head["format"] != BUNDLE_FORMAT:
            raise ValueError(f"format {head['format']!r} is not supported")
        manifest, meta = head["manifest"], head["meta"]
        signature = head["signature"]
        if not isinstance(manifest, dict) or set(manifest) != _MANIFEST_KEYS or (
            not isinstance(manifest["files"], dict)
        ):
            raise ValueError("malformed manifest")
        if manifest["hash"] != dag_hash:
            raise ValueError(
                f"it carries the manifest of {str(manifest['hash'])[:12]} "
                "(misfiled entry)"
            )
        if not isinstance(meta, dict) or not isinstance(manifest["meta"], str):
            raise ValueError("malformed metadata")
        if signature is not None and not (
            isinstance(signature, dict)
            and all(isinstance(v, str) for v in signature.values())
        ):
            raise ValueError("malformed signature")
        dirs = manifest["dirs"]
        if not isinstance(dirs, list) or not all(_relative(d) for d in dirs):
            raise ValueError("malformed directory list")
        payload = cls(
            dag_hash, meta, dirs=list(dirs), manifest=manifest,
            signature=signature,
        )
        offset = end + 1
        for rel, entry in manifest["files"].items():
            if not _relative(rel) or not isinstance(entry, dict) or (
                set(entry) != _FILE_KEYS
            ):
                raise ValueError(f"malformed manifest entry {rel!r}")
            size = entry["size"]
            if type(size) is not int or size < 0 or offset + size > len(data):
                raise ValueError(f"file {rel!r} overruns the bundle")
            payload.files[rel] = data[offset:offset + size]
            offset += size
        if offset != len(data):
            raise ValueError(f"{len(data) - offset} trailing byte(s)")
        return payload

    def problems(self) -> List[str]:
        """Where the meta or a payload file does not match its manifest
        digest (empty for an intact entry)."""
        found = []
        if _sha256(_canonical(self.meta)) != self.manifest["meta"]:
            found.append("metadata does not match its manifest")
        for rel, entry in self.manifest["files"].items():
            if _sha256(self.files[rel]) != entry["sha256"]:
                found.append(
                    f"payload file {rel!r} does not match its manifest "
                    "digest (torn or tampered)"
                )
        return found


class BuildCache:
    """A directory of relocatable binary packages keyed by ``dag_hash``.

    ``signing_key`` makes every push produce a detached signature (the
    CI/publisher role); ``trust`` makes every extract verify the entry
    against a :class:`TrustStore` first (the consumer role).  A cache
    opened with neither behaves like a local scratch mirror.

    ``backend`` swaps the storage substrate (default: a
    :class:`LocalFSBackend` over ``root``); ``name`` sets the label
    used in mirror spans, per-mirror counters, and error messages.
    """

    def __init__(
        self,
        root=None,
        signing_key: Optional[SigningKey] = None,
        trust: Optional[TrustStore] = None,
        backend: Optional[StorageBackend] = None,
        name: Optional[str] = None,
    ):
        if backend is None:
            if root is None:
                raise BuildCacheError("BuildCache needs a root or a backend")
            backend = LocalFSBackend(root)
        self.backend = backend
        root = root if root is not None else getattr(backend, "root", None)
        self.root = Path(root) if root is not None else None
        self.label = name or backend.name
        self.signing_key = signing_key
        self.trust = trust
        #: reconstruction memo shared across all_specs() calls
        self._materialized: Dict[str, Spec] = {}
        #: every node built so far, by hash: ``Spec.from_dict``'s memo,
        #: so a node that many indexed DAGs share is built once
        self._nodes: Dict[str, Spec] = {}
        with trace.span("buildcache.index_load", cache=backend.describe()) as sp:
            self._index = ShardedIndex(backend)
            sp.set(journal_entries=self._index.journal_entries)
        logger.debug(
            "opened index %s (journal entries replayed: %d) in %.4fs",
            self.index_path, self._index.journal_entries, sp.duration,
        )

    # ------------------------------------------------------------------
    # layout (Path properties serve local-filesystem callers; all I/O
    # inside the cache goes through string keys on the backend)
    # ------------------------------------------------------------------
    @property
    def blobs(self):
        return self.root / "blobs" if self.root else f"{self.label}/blobs"

    @property
    def index_path(self):
        return self.root / INDEX_NAME if self.root else f"{self.label}/{INDEX_NAME}"

    @staticmethod
    def entry_key(dag_hash: str) -> str:
        return f"blobs/{dag_hash}{BUNDLE_SUFFIX}"

    # ------------------------------------------------------------------
    # index persistence
    # ------------------------------------------------------------------
    def save_index(self) -> None:
        """Fold the push journal into shards and persist the manifest;
        concurrent readers see old-or-new shards, never a torn write."""
        with trace.span("buildcache.index_save", cache=self.backend.describe()) as sp:
            written = self._index.save()
            sp.set(specs=len(self), shards_written=written)
        logger.debug(
            "saved index %s: %d specs, %d shard(s) written in %.4fs",
            self.index_path, len(self), written, sp.duration,
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._index.spec_count()

    def __contains__(self, dag_hash: str) -> bool:
        return self._index.has_spec(dag_hash)

    def __iter__(self):
        return self._index.spec_hashes()

    @property
    def manifest_digest(self) -> Optional[str]:
        """The index's v3 manifest digest (None for v1/v2 indexes)."""
        return self._index.manifest_digest

    def state_token(self):
        """Cheap in-memory token that changes whenever this cache's
        index content may have changed (pushes, saves, refreshes) —
        what :class:`~repro.buildcache.mirror.MirrorGroup` keys its
        cached merged view on."""
        return self._index.state_token()

    def content_digest(self) -> str:
        """Stable digest of the indexed spec set (O(1) with a current
        v3 manifest) — the concretizer's reuse-set cache key."""
        return self._index.content_digest()

    def spec_hash_set(self) -> frozenset:
        """The exact set of indexed spec hashes.  Served from the
        index's summary sidecar when it can prove the answer (zero
        shard reads); otherwise falls back to the full shard walk."""
        hashes = self._index.spec_hash_set()
        if hashes is None:
            hashes = frozenset(self._index.spec_hashes())
        return hashes

    def refresh_index(self) -> int:
        """Pick up another writer's ``save_index`` without reopening:
        delta-reloads only the shards whose manifest digests changed.
        Returns the number of shards invalidated (0 = unchanged)."""
        changed = self._index.refresh()
        if changed:
            self._materialized.clear()
            self._nodes.clear()
        return changed

    def all_specs(self) -> List[Spec]:
        """Every indexed spec, reconstructed as a concrete DAG.

        These are the ``reusable_specs`` fed to the concretizer; splice
        provenance pointers are resolved through the index's build-spec
        documents.  This is the full-enumeration path: it parses every
        shard (single-spec consumers should use ``in`` + ``meta``).
        """
        return [self._materialize(h) for h in self._index.spec_hashes()]

    def materialize_spec(self, dag_hash: str) -> Spec:
        """Reconstruct one indexed spec as a concrete DAG (the per-hash
        slice of :meth:`all_specs`; memoized, loads only the shards the
        DAG's hashes live in)."""
        return self._materialize(dag_hash)

    def _materialize(self, dag_hash: str) -> Spec:
        spec = self._materialized.get(dag_hash)
        if spec is not None:
            return spec
        document = self._index.get_spec(dag_hash)
        if document is None:
            document = self._index.get_build_spec(dag_hash)
        if document is None:
            raise BuildCacheError(f"unknown spec hash {dag_hash} in buildcache")
        # only external nodes have a recorded prefix (see _index_spec)
        new_externals = [
            rec["hash"] for rec in document["nodes"]
            if rec.get("external") and rec["hash"] not in self._nodes
        ]
        spec = Spec.from_dict(
            document, build_spec_lookup=self._materialize, memo=self._nodes
        )
        for node_hash in new_externals:
            prefix = self._index.external_prefix(node_hash)
            if prefix is not None:
                self._nodes[node_hash].external_prefix = prefix
        self._materialized[dag_hash] = spec
        return spec

    # ------------------------------------------------------------------
    # push
    # ------------------------------------------------------------------
    def push(self, spec: Spec, prefix, dep_prefixes: Optional[Dict[str, str]] = None):
        """Store the payload installed at ``prefix`` under ``spec``'s hash.

        ``dep_prefixes`` maps dependency ``dag_hash`` -> the prefix that
        dependency occupied on the build machine; extraction uses it to
        rewrite dependency references for the consumer's store layout.
        Re-pushing an existing hash is an idempotent overwrite.

        The entry is one bundle written with one atomic, durable
        ``put``: a crash mid-push leaves the previous entry intact.  The
        index entry is appended to the journal (fsynced) and replayed
        on the next open, so a crash before ``save_index`` loses nothing.
        """
        if not spec.concrete:
            raise BuildCacheError(f"cannot push abstract spec {spec}")
        prefix = Path(prefix)
        if not prefix.is_dir():
            raise BuildCacheError(
                f"cannot push {spec.name}: install prefix {prefix} does not exist"
            )
        dag_hash = spec.dag_hash()
        with trace.span("buildcache.push", name=spec.name, hash=dag_hash[:7]) as sp:
            payload = CachedPayload(dag_hash, meta={
                "name": spec.name,
                "version": str(spec.version),
                "hash": dag_hash,
                "prefix": str(prefix),
                "dep_prefixes": dict(dep_prefixes or {}),
                "spliced": spec.spliced,
            })
            for path in sorted(prefix.rglob("*")):
                rel = path.relative_to(prefix).as_posix()
                if path.is_dir():
                    payload.dirs.append(rel)
                elif path.is_file():
                    payload.files[rel] = path.read_bytes()
            payload.manifest = {
                "hash": dag_hash,
                "meta": _sha256(_canonical(payload.meta)),
                "files": {
                    rel: {"sha256": _sha256(data), "size": len(data)}
                    for rel, data in payload.files.items()
                },
                "dirs": payload.dirs,
            }
            if self.signing_key is not None:
                payload.signature = self.signing_key.sign(payload.manifest_bytes())
            try:
                self.backend.put(self.entry_key(dag_hash), payload.to_bundle())
            except ReadOnlyBackendError as e:
                raise BuildCacheError(
                    f"cannot push {spec.name} to read-only cache "
                    f"{self.label}: {e}"
                ) from e

            self._index_spec(spec)
            self._materialized.pop(dag_hash, None)
            self._nodes.clear()
            sp.set(files=len(payload.files), bytes=payload.size)
        metrics.inc("buildcache.pushes")
        metrics.inc("buildcache.pushed_bytes", payload.size)
        logger.debug(
            "pushed %s/%s: %d files, %d bytes in %.4fs",
            spec.name, dag_hash[:7], len(payload.files), payload.size,
            sp.duration,
        )

    def _index_spec(self, spec: Spec) -> None:
        """Record one pushed spec: its document, the provenance documents
        of any splice targets, and external prefixes — journaled through
        the sharded index so the push is durable without ``save_index``."""
        specs = {spec.dag_hash(): spec.to_dict()}
        build_specs: Dict[str, dict] = {}
        external_prefixes: Dict[str, str] = {}
        for node in spec.traverse():
            if node.external and node.external_prefix:
                external_prefixes[node.dag_hash()] = node.external_prefix
            # splice provenance targets live outside this DAG; record
            # their documents so all_specs() can resolve the pointers
            build = node.build_spec
            while build is not None:
                build_hash = build.dag_hash()
                if build_hash in build_specs or (
                    self._index.get_build_spec(build_hash) is not None
                ):
                    break
                build_specs[build_hash] = build.to_dict()
                for sub in build.traverse():
                    if sub.external and sub.external_prefix:
                        external_prefixes[sub.dag_hash()] = sub.external_prefix
                build = build.build_spec
        self._index.record_push(specs, build_specs, external_prefixes)

    # ------------------------------------------------------------------
    # staged fetch / verify / extract
    # ------------------------------------------------------------------
    def fetch(self, dag_hash: str) -> CachedPayload:
        """Read one cache entry into memory: one backend ``get``.

        This is the I/O stage of the pipelined install path: it has no
        ordering requirements, so the installer prefetches independent
        DAG nodes concurrently while earlier nodes are still extracting.
        A missing bundle raises :class:`MissingBlobError` (a miss: try
        the next cache, then build); a corrupt one raises
        :class:`BuildCacheError`.
        """
        with trace.span("buildcache.fetch", hash=dag_hash[:7]) as sp:
            try:
                data = self.backend.get(self.entry_key(dag_hash))
            except MissingBlobError:
                raise MissingBlobError(
                    f"cache entry {dag_hash} has no bundle in {self.label}"
                ) from None
            payload = CachedPayload.from_bundle(dag_hash, data)
            payload.source = self.label
            sp.set(
                name=payload.meta.get("name"), files=len(payload.files),
                bytes=payload.size,
            )
        metrics.inc("buildcache.fetches")
        metrics.inc("buildcache.fetched_bytes", payload.size)
        return payload

    def verify_payload(self, payload: CachedPayload) -> CachedPayload:
        """Check a fetched entry's signature and digests against the
        trust store (a no-op without one); no backend call."""
        if self.trust is None:
            return payload
        from .signing import SignatureError

        with trace.span("buildcache.verify", hash=payload.dag_hash[:7]):
            try:
                self.trust.verify(payload.manifest_bytes(), payload.signature)
            except SignatureError as e:
                raise BuildCacheError(f"cache entry {payload.dag_hash}: {e}") from e
            problems = payload.problems()
            if problems:
                raise BuildCacheError(
                    f"cache entry {payload.dag_hash}: {problems[0]}"
                )
        payload.verified = True
        metrics.inc("buildcache.verifications")
        return payload

    def extract_payload(
        self,
        payload: CachedPayload,
        prefix,
        extra_prefix_map: Optional[Dict[str, str]] = None,
    ) -> Path:
        """Relocate an in-memory payload into ``prefix`` and write it."""
        from ..binary.mockelf import BinaryFormatError, MockBinary
        from ..binary.relocate import relocate_binary

        if self.trust is not None and not payload.verified:
            self.verify_payload(payload)
        with trace.span(
            "buildcache.extract",
            name=payload.meta.get("name"),
            hash=payload.dag_hash[:7],
        ) as sp:
            prefix = Path(prefix)
            prefix_map: Dict[str, str] = {}
            recorded = payload.meta.get("prefix")
            if recorded:
                prefix_map[recorded] = str(prefix)
            if extra_prefix_map:
                prefix_map.update(extra_prefix_map)

            prefix.mkdir(parents=True, exist_ok=True)
            for rel in payload.dirs:
                (prefix / rel).mkdir(parents=True, exist_ok=True)
            extracted_bytes = 0
            for rel, data in payload.files.items():
                target = prefix / rel
                target.parent.mkdir(parents=True, exist_ok=True)
                extracted_bytes += len(data)
                try:
                    binary = MockBinary.from_bytes(data)
                except BinaryFormatError:
                    target.write_bytes(data)  # opaque payload: copy verbatim
                    continue
                relocated = relocate_binary(binary, prefix_map)
                relocated.binary.write(target)
            sp.set(files=len(payload.files), bytes=extracted_bytes)
        metrics.inc("buildcache.extractions")
        metrics.inc("buildcache.extracted_bytes", extracted_bytes)
        logger.debug(
            "extracted %s/%s to %s: %d files, %d bytes in %.4fs",
            payload.meta.get("name"), payload.dag_hash[:7], prefix,
            len(payload.files), extracted_bytes, sp.duration,
        )
        return prefix

    def extract(
        self,
        dag_hash: str,
        prefix,
        extra_prefix_map: Optional[Dict[str, str]] = None,
    ) -> Path:
        """Materialize a cached payload at ``prefix``, relocating paths.

        Every mock binary is rewritten so that references to the build
        machine's prefix (and, via ``extra_prefix_map``, its dependency
        prefixes) point into the consumer's store.  Files that are not
        mock binaries are copied verbatim, like headers or docs in a
        real package.  Fetch → verify → extract, in one call.
        """
        payload = self.fetch(dag_hash)
        if self.trust is not None:
            self.verify_payload(payload)
        return self.extract_payload(
            payload, prefix, extra_prefix_map=extra_prefix_map
        )

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        signed = self.signing_key.name if self.signing_key else None
        return (
            f"<BuildCache {self.backend.describe()} specs={len(self)} "
            f"signing={signed!r} trusting={self.trust is not None}>"
        )
