"""The binary buildcache: signed, indexed, content-addressed artifacts.

This is the distribution substrate of Section 2/6 of the paper.  A
cache maps every concrete spec's ``dag_hash`` to the payload tree that
was installed at some build-machine prefix, plus enough metadata to
relocate that payload into any consumer store.

On-disk layout (one directory per cache)::

    <cache>/
      index.json                  -- manifest of shards (format v2)
      index.d/<pp>.json           -- per-hash-prefix index shards
      journal.jsonl               -- pushes not yet folded into shards
      blobs/<dag_hash>/
        files/...                 -- verbatim copy of the install prefix
        meta.json                 -- recorded prefix + dependency prefixes
        manifest.json             -- sha256 digest of meta + every file
        manifest.sig              -- detached HMAC signature (if signed)

The *index* answers "which specs does this mirror serve" without
touching any blob (what Spack's ``index.json`` does for a mirror) and
is sharded by hash prefix so single-spec lookups parse one shard, not
20k specs (see :mod:`repro.buildcache.index`); the per-entry *meta*
records the prefixes needed for relocation; the *manifest* +
*signature* implement the GPG-style trust model (see
:mod:`repro.buildcache.signing`).

The extract path is staged — :meth:`BuildCache.fetch` (blob bytes into
memory), :meth:`BuildCache.verify_payload` (signature + digests over
those bytes), :meth:`BuildCache.extract_payload` (relocate + write) —
so the installer's fetch pipeline can overlap the stages of independent
DAG nodes; :meth:`BuildCache.extract` composes all three for the
serial callers.

All storage I/O goes through a :class:`~repro.buildcache.backend.
StorageBackend` (a local directory by default), so the same cache
logic runs against a simulated flaky remote or any future S3/HTTP
backend, and several caches compose into an ordered mirror list via
:class:`~repro.buildcache.mirror.MirrorGroup`.  A push publishes the
*entire* entry (payload + metadata + manifest + signature) through the
backend's atomic-publish contract, so an interrupted re-push leaves
the previous entry fully intact — never a signed manifest over a
partial payload.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

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


def _canonical(document: dict) -> bytes:
    return json.dumps(document, sort_keys=True, indent=1).encode()


@dataclass
class CachedPayload:
    """One cache entry fetched into memory, ready to verify and extract."""

    dag_hash: str
    meta: dict
    #: payload-relative posix path -> file bytes
    files: Dict[str, bytes] = field(default_factory=dict)
    #: payload-relative posix paths of directories (preserves empty dirs)
    dirs: List[str] = field(default_factory=list)
    #: set by :meth:`BuildCache.verify_payload`
    verified: bool = False
    #: label of the cache/mirror that served this payload (attribution
    #: in the installer's fetch pipeline and MirrorGroup fallback)
    source: Optional[str] = None

    @property
    def size(self) -> int:
        return sum(len(data) for data in self.files.values())


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
    def _entry_key(dag_hash: str) -> str:
        return f"blobs/{dag_hash}"

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

    def has_payload(self, dag_hash: str) -> bool:
        """Is the binary payload itself present (not just indexed)?"""
        return self.backend.tree_exists(f"{self._entry_key(dag_hash)}/files")

    def meta(self, dag_hash: str) -> dict:
        key = f"{self._entry_key(dag_hash)}/meta.json"
        try:
            return json.loads(self.backend.get(key))
        except MissingBlobError:
            raise BuildCacheError(
                f"cache entry {dag_hash} has no metadata ({key} missing "
                f"from {self.label})"
            ) from None
        except json.JSONDecodeError as e:
            raise BuildCacheError(
                f"cache entry {dag_hash} has corrupt metadata: {e}"
            ) from e

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

        The push is durable on its own: the index entry is appended to
        the journal (fsynced) and replayed on the next open, so a crash
        before ``save_index`` loses nothing.
        """
        from .signing import sha256_digest

        if not spec.concrete:
            raise BuildCacheError(f"cannot push abstract spec {spec}")
        prefix = Path(prefix)
        if not prefix.is_dir():
            raise BuildCacheError(
                f"cannot push {spec.name}: install prefix {prefix} does not exist"
            )
        dag_hash = spec.dag_hash()
        with trace.span("buildcache.push", name=spec.name, hash=dag_hash[:7]) as sp:
            # Read the install tree into memory first, then publish the
            # whole entry (payload + meta + manifest + signature) through
            # the backend's atomic-publish contract: a crash mid-push
            # leaves the previous entry fully intact.
            entry_files: Dict[str, bytes] = {}
            entry_dirs: List[str] = ["files"]
            digests: Dict[str, str] = {}
            payload_bytes = 0
            for path in sorted(prefix.rglob("*")):
                rel = path.relative_to(prefix).as_posix()
                if path.is_dir():
                    entry_dirs.append(f"files/{rel}")
                elif path.is_file():
                    data = path.read_bytes()
                    payload_bytes += len(data)
                    entry_files[f"files/{rel}"] = data
                    digests[rel] = sha256_digest(data)

            meta = {
                "name": spec.name,
                "version": str(spec.version),
                "hash": dag_hash,
                "prefix": str(prefix),
                "dep_prefixes": dict(dep_prefixes or {}),
                "spliced": spec.spliced,
            }
            meta_bytes = _canonical(meta)
            entry_files["meta.json"] = meta_bytes

            manifest = {
                "hash": dag_hash,
                "meta": sha256_digest(meta_bytes),
                "files": digests,
            }
            manifest_bytes = _canonical(manifest)
            entry_files["manifest.json"] = manifest_bytes
            if self.signing_key is not None:
                entry_files["manifest.sig"] = _canonical(
                    self.signing_key.sign(manifest_bytes)
                )
            # no signing key: the published tree simply carries no
            # manifest.sig — a stale signature can never survive a re-push

            try:
                self.backend.publish_tree(
                    self._entry_key(dag_hash), entry_files, entry_dirs
                )
            except ReadOnlyBackendError as e:
                raise BuildCacheError(
                    f"cannot push {spec.name} to read-only cache "
                    f"{self.label}: {e}"
                ) from e

            self._index_spec(spec)
            self._materialized.pop(dag_hash, None)
            self._nodes.clear()
            sp.set(files=len(digests), bytes=payload_bytes)
        metrics.inc("buildcache.pushes")
        metrics.inc("buildcache.pushed_bytes", payload_bytes)
        logger.debug(
            "pushed %s/%s: %d files, %d bytes in %.4fs",
            spec.name, dag_hash[:7], len(digests), payload_bytes, sp.duration,
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
    # verification
    # ------------------------------------------------------------------
    def verify_payload(self, payload: CachedPayload) -> CachedPayload:
        """Verify an in-memory payload against its signed manifest."""
        if self.trust is None:
            return payload
        with trace.span("buildcache.verify", hash=payload.dag_hash[:7]):
            self._verify_files(payload.dag_hash, payload.files)
        payload.verified = True
        metrics.inc("buildcache.verifications")
        return payload

    def _verify_files(self, dag_hash: str, payload_files: Dict[str, bytes]) -> None:
        from .signing import SignatureError, sha256_digest

        entry = self._entry_key(dag_hash)
        try:
            manifest_bytes = self.backend.get(f"{entry}/manifest.json")
        except MissingBlobError:
            raise BuildCacheError(
                f"cache entry {dag_hash} has no manifest — refusing to extract"
            ) from None
        signature = None
        if self.backend.exists(f"{entry}/manifest.sig"):
            try:
                signature = json.loads(self.backend.get(f"{entry}/manifest.sig"))
            except (MissingBlobError, json.JSONDecodeError) as e:
                raise BuildCacheError(
                    f"cache entry {dag_hash} has a corrupt signature: {e}"
                ) from e
        try:
            self.trust.verify(manifest_bytes, signature)
        except SignatureError as e:
            raise BuildCacheError(f"cache entry {dag_hash}: {e}") from e

        try:
            manifest = json.loads(manifest_bytes)
        except json.JSONDecodeError as e:
            raise BuildCacheError(
                f"cache entry {dag_hash} has a corrupt manifest: {e}"
            ) from e
        try:
            meta_bytes = self.backend.get(f"{entry}/meta.json")
        except MissingBlobError:
            # a manifest without its meta.json is a torn/corrupt entry,
            # not a crash-worthy FileNotFoundError
            raise BuildCacheError(
                f"cache entry {dag_hash} has no metadata ({entry}/meta.json "
                "missing) — refusing to extract"
            ) from None
        if sha256_digest(meta_bytes) != manifest.get("meta"):
            raise BuildCacheError(
                f"cache entry {dag_hash}: metadata does not match its manifest"
            )
        expected: Dict[str, str] = dict(manifest.get("files", {}))
        for rel, data in payload_files.items():
            digest = expected.pop(rel, None)
            if digest is None:
                raise BuildCacheError(
                    f"cache entry {dag_hash}: unexpected file {rel!r} "
                    "not covered by the signed manifest"
                )
            if sha256_digest(data) != digest:
                raise BuildCacheError(
                    f"cache entry {dag_hash}: payload file {rel!r} was "
                    "tampered with after signing"
                )
        if expected:
            missing = ", ".join(sorted(expected))
            raise BuildCacheError(
                f"cache entry {dag_hash}: signed payload files missing: {missing}"
            )

    # ------------------------------------------------------------------
    # staged fetch / extract
    # ------------------------------------------------------------------
    def fetch(self, dag_hash: str) -> CachedPayload:
        """Read a cache entry's metadata and payload bytes into memory.

        This is the I/O stage of the pipelined install path: it has no
        ordering requirements, so the installer prefetches independent
        DAG nodes concurrently while earlier nodes are still extracting.
        """
        meta = self.meta(dag_hash)  # raises BuildCacheError when absent
        files_key = f"{self._entry_key(dag_hash)}/files"
        with trace.span(
            "buildcache.fetch", name=meta.get("name"), hash=dag_hash[:7]
        ) as sp:
            try:
                names, dirs = self.backend.list_tree(files_key)
            except MissingBlobError:
                raise BuildCacheError(
                    f"cache entry {dag_hash} has no payload"
                ) from None
            payload = CachedPayload(
                dag_hash=dag_hash, meta=meta, source=self.label
            )
            payload.dirs = sorted(dirs)
            for rel in sorted(names):
                payload.files[rel] = self.backend.get(f"{files_key}/{rel}")
            sp.set(files=len(payload.files), bytes=payload.size)
        metrics.inc("buildcache.fetches")
        metrics.inc("buildcache.fetched_bytes", payload.size)
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
