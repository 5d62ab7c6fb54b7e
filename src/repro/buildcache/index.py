"""Sharded, journaled, summarized buildcache index (format v3).

The paper's public cache holds ~20k specs.  A monolithic ``index.json``
pays two quadratic-ish costs at that scale: every ``save_index`` rewrites
the whole document, and every open re-parses all of it even when the
consumer only asks about one hash.  Format v2 split the index three ways:

* ``index.json`` — a small *manifest of shards*: format version, shard
  width, and per-shard spec counts.  Opening a cache parses only this.
* ``index.d/<pp>.json`` — one shard per 2-hex-char ``dag_hash`` prefix
  (256 shards, ~80 specs each at 20k).  Shards are parsed lazily, keyed
  by the hashes actually requested, and written atomically (tmp+rename)
  so concurrent readers see old-or-new, never torn.
* ``journal.jsonl`` — an append-only journal of pushes not yet folded
  into shards.  ``push`` appends one fsynced line instead of rewriting
  anything; ``save_index`` folds the journal into the affected shards
  and truncates it.  A process killed between ``push`` and
  ``save_index`` loses nothing: the journal is replayed on open.

Format v3 adds the *federated-mirror* layer on top (ROADMAP "kill the
741 ms union"): negative lookups and union enumeration must not walk
every shard of every mirror.

* Every shard gets a **content digest** (sha256 of its canonical
  document) recorded in the manifest, and the manifest itself gets a
  **manifest digest** over the sorted per-shard digests.  A mirror
  whose manifest digest is unchanged provably has unchanged content —
  consumers (``MirrorGroup``, :meth:`ShardedIndex.refresh`) never
  re-walk it, and a changed mirror reloads only the shards whose
  digests moved.
* ``index.sum.json`` — a per-shard **summary** sidecar (the exact
  sorted table of each shard's spec hashes; see
  :mod:`repro.buildcache.summary`) written atomically before
  ``index.json``, which records the sha256 of the sidecar's bytes.
  Negative lookups are answered from the summary in O(1) without
  loading any shard, and the whole spec-hash set enumerates from the
  summary alone, so a mirror union never parses a shard.  A sidecar
  whose bytes do not hash to the manifest's record (a crash between
  the two writes, a foreign writer, a flipped byte) is ignored —
  summaries make lookups faster, never wrong.

v1 monolithic and v2 digest-less manifests are read transparently and
migrate to v3 on the next ``save``; ``save`` only ever writes v3.

Entries in a shard are keyed by *their own* hash prefix: spec documents
under the spec's ``dag_hash``, build-spec provenance documents under the
build spec's hash, external prefixes under the owning node's hash.  A
single-spec materialization therefore touches only the shards of the
hashes it actually resolves (one per DAG node at worst), never all 256.

All persistence goes through a :class:`~repro.buildcache.backend.
StorageBackend` (``ShardedIndex(path)`` wraps the path in a
:class:`~repro.buildcache.backend.LocalFSBackend`), so the same index
logic serves a local directory, a simulated flaky remote, or any
future S3/HTTP-style backend unchanged.  Shard, summary, and manifest
writes use the backend's atomic+durable ``put`` (tmp write, fsync,
rename, dir fsync) — matching the durability the fsynced journal
always had.
"""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from ..obs import metrics, trace
from .backend import (
    BackendError,
    BuildCacheError,
    LocalFSBackend,
    MissingBlobError,
    StorageBackend,
    TransientBackendError,
)
from .summary import SortedHashSummary, SummaryFormatError, summary_from_document

__all__ = [
    "ShardedIndex",
    "BuildCacheError",
    "IndexFormatError",
    "INDEX_VERSION",
    "SHARD_WIDTH",
    "SUMMARY_NAME",
]

INDEX_VERSION = 3
SHARD_WIDTH = 2  # hex chars of dag_hash per shard -> 256 shards
INDEX_NAME = "index.json"
SHARD_DIR = "index.d"
JOURNAL_NAME = "journal.jsonl"
SUMMARY_NAME = "index.sum.json"

#: the three entry tables every shard (and journal record) carries
_TABLES = ("specs", "build_specs", "external_prefixes")


class IndexFormatError(BuildCacheError):
    """Raised for corrupt or unsupported index documents."""


def _canonical(document: dict) -> bytes:
    return json.dumps(document, sort_keys=True, indent=1).encode()


class _Shard:
    """One lazily-loaded hash-prefix bucket of the index."""

    __slots__ = ("prefix", "specs", "build_specs", "external_prefixes",
                 "loaded", "dirty")

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.specs: Dict[str, dict] = {}
        self.build_specs: Dict[str, dict] = {}
        self.external_prefixes: Dict[str, str] = {}
        self.loaded = False
        self.dirty = False

    def table(self, name: str) -> dict:
        return getattr(self, name)

    def is_empty(self) -> bool:
        return not (self.specs or self.build_specs or self.external_prefixes)

    def reset(self) -> None:
        """Drop parsed content (delta reload of an externally changed
        shard); only valid for clean shards — a dirty shard's tables
        carry journal overlay entries that must survive."""
        self.specs = {}
        self.build_specs = {}
        self.external_prefixes = {}
        self.loaded = False

    def to_document(self) -> dict:
        return {
            "specs": self.specs,
            "build_specs": self.build_specs,
            "external_prefixes": self.external_prefixes,
        }


class ShardedIndex:
    """The buildcache's spec index: sharded storage + push journal +
    per-shard summaries.

    All reads go through per-hash accessors so only the shards hosting
    the requested hashes are parsed; negative ``has_spec`` probes are
    answered from the summary sidecar without touching any shard, and
    ``load_all`` remains for consumers that need full documents.
    Thread safe: the parallel installer's fetch workers probe
    ``has_spec`` concurrently.
    """

    def __init__(self, root: Union[Path, str, StorageBackend]):
        if isinstance(root, StorageBackend):
            self.backend = root
            self.root = getattr(root, "root", None)
        else:
            self.root = Path(root)
            self.backend = LocalFSBackend(self.root)
        #: display string for spans and error messages
        self._desc = self.backend.describe()
        self._lock = threading.RLock()
        self._shards: Dict[str, _Shard] = {}
        #: per-shard spec counts from the manifest (authoritative for
        #: unloaded shards; loaded shards are counted directly)
        self._manifest_counts: Dict[str, int] = {}
        #: per-shard content digests from a v3 manifest
        self._shard_digests: Dict[str, str] = {}
        #: the v3 manifest digest (None for v1/v2 indexes)
        self._manifest_digest: Optional[str] = None
        #: sha256 of the summary sidecar's bytes, as the v3 manifest
        #: records it (None = no sidecar to trust)
        self._summary_sha: Optional[str] = None
        #: shard prefixes that exist on disk (from the manifest)
        self._on_disk: Set[str] = set()
        #: True once every on-disk shard has been parsed
        self._fully_loaded = False
        #: parsed summary sidecar: None = not loaded yet, {} = absent or
        #: unverified, else prefix -> SortedHashSummary
        self._summaries: Optional[Dict[str, SortedHashSummary]] = None
        #: monotonic in-memory change counter: bumped by every push,
        #: save, and refresh so :meth:`state_token` changes whenever a
        #: cached merged view over this index could be stale
        self._revision = 0
        self._journal_entries = 0
        self._load()

    # ------------------------------------------------------------------
    # layout (string keys into the backend; the Path properties remain
    # for local-filesystem callers and error messages)
    # ------------------------------------------------------------------
    @property
    def manifest_path(self):
        return self.root / INDEX_NAME if self.root else f"{self._desc}/{INDEX_NAME}"

    @property
    def shard_dir(self):
        return self.root / SHARD_DIR if self.root else f"{self._desc}/{SHARD_DIR}"

    @property
    def journal_path(self):
        return (
            self.root / JOURNAL_NAME if self.root else f"{self._desc}/{JOURNAL_NAME}"
        )

    @property
    def manifest_digest(self) -> Optional[str]:
        """The v3 manifest digest (None for v1/v2 on-disk formats)."""
        return self._manifest_digest

    def state_token(self) -> Tuple[Optional[str], int]:
        """A cheap, in-memory token that changes whenever this index's
        visible content may have changed: (manifest digest, revision).

        The revision half covers in-process mutation (``record_push``
        without ``save``: the journal overlay changes what lookups see
        long before any manifest digest moves); the digest half covers
        cross-process change picked up by :meth:`refresh`.  Merged-view
        caches key on this tuple — an unchanged token means a cached
        view is still exact.
        """
        return (self._manifest_digest, self._revision)

    def content_digest(self) -> str:
        """A stable digest of the indexed spec set, cheap when possible.

        With a current v3 manifest (no unsaved journal overlay or
        pushes pending) this is O(1): the manifest digest is computed
        over the per-shard sha256 lines, which cover every spec
        document.  Otherwise it falls back to hashing the exact
        spec-hash set (summary-served when the sidecars can prove it) —
        still shard-read-free in the common case.  Spec hashes are DAG
        content hashes, so the set fully determines the reusable specs;
        the two schemes are prefixed so they can never collide.  The
        concretizer's ground cache keys reuse sets on this instead of
        re-hashing 20k spec DAGs per solve.
        """
        with self._lock:
            dirty = any(shard.dirty for shard in self._shards.values())
            if self._manifest_digest is not None and not dirty:
                return f"manifest:{self._manifest_digest}"
        hashes = self.spec_hash_set()
        if hashes is None:
            hashes = frozenset(self.spec_hashes())
        digest = hashlib.sha256()
        for spec_hash in sorted(hashes):
            digest.update(spec_hash.encode())
            digest.update(b"\n")
        return f"hashes:{digest.hexdigest()}"

    @staticmethod
    def _shard_key(prefix: str) -> str:
        return f"{SHARD_DIR}/{prefix}.json"

    @staticmethod
    def shard_prefix(dag_hash: str) -> str:
        return dag_hash[:SHARD_WIDTH].lower()

    def _shard_for(self, dag_hash: str) -> _Shard:
        prefix = self.shard_prefix(dag_hash)
        shard = self._shards.get(prefix)
        if shard is None:
            shard = self._shards[prefix] = _Shard(prefix)
        return shard

    # ------------------------------------------------------------------
    # open: manifest (or v1 monolith) + journal replay
    # ------------------------------------------------------------------
    def _load(self) -> None:
        try:
            data = json.loads(self.backend.get(INDEX_NAME))
        except MissingBlobError:
            self._fully_loaded = True  # empty cache: nothing on disk
            self._replay_journal()
            return
        except TransientBackendError:
            raise  # flaky, not corrupt: let MirrorGroup retry/degrade
        except (BackendError, json.JSONDecodeError) as e:
            raise IndexFormatError(
                f"corrupt buildcache index at {self.manifest_path}: {e}"
            ) from e
        if not isinstance(data, dict):
            raise IndexFormatError(
                f"corrupt buildcache index at {self.manifest_path}: not an object"
            )
        version = data.get("version")
        if version == 1:
            self._load_v1(data)
        elif version in (2, INDEX_VERSION):
            self._load_manifest(data)
        else:
            raise IndexFormatError(
                f"buildcache index version {version!r} is not supported "
                f"(expected 1, 2, or {INDEX_VERSION})"
            )
        self._replay_journal()

    def _load_v1(self, data: dict) -> None:
        """Read a monolithic v1 index into memory (transparent migrate:
        every shard becomes loaded + dirty, so the next save writes v3)."""
        with trace.span("buildcache.index_migrate", cache=self._desc) as sp:
            for table, key_kind in (
                ("specs", "specs"),
                ("build_specs", "build_specs"),
                ("external_prefixes", "external_prefixes"),
            ):
                for key, value in dict(data.get(table, {})).items():
                    shard = self._shard_for(key)
                    shard.table(key_kind)[key] = value
            for shard in self._shards.values():
                shard.loaded = True
                shard.dirty = True
            self._fully_loaded = True
            sp.set(specs=self.spec_count(), shards=len(self._shards))
        metrics.inc("buildcache.v1_migrations")

    @staticmethod
    def _parse_manifest_shards(data: dict, where) -> dict:
        shards = data.get("shards", {})
        if not isinstance(shards, dict):
            raise IndexFormatError(
                f"corrupt buildcache manifest at {where}: "
                "'shards' is not an object"
            )
        return shards

    def _load_manifest(self, data: dict) -> None:
        with trace.span("buildcache.manifest_load", cache=self._desc) as sp:
            shards = self._parse_manifest_shards(data, self.manifest_path)
            for prefix, entry in shards.items():
                self._on_disk.add(prefix)
                self._manifest_counts[prefix] = int(entry.get("specs", 0))
                digest = entry.get("digest")
                if digest:
                    self._shard_digests[prefix] = str(digest)
            if data.get("version") == INDEX_VERSION:
                self._manifest_digest = data.get("digest") or None
                self._summary_sha = data.get("summary_sha256") or None
            self._fully_loaded = not self._on_disk
            sp.set(shards=len(self._on_disk), specs=sum(self._manifest_counts.values()))

    def _replay_journal(self) -> None:
        """Fold unflushed pushes back into the in-memory overlay.

        Journal records land in their shards as *loaded-or-overlay*
        entries: a shard that is not yet parsed keeps its journal
        entries in memory and merges the on-disk document underneath
        when (if) it is eventually loaded.
        """
        try:
            journal = self.backend.get(JOURNAL_NAME)
        except MissingBlobError:
            return
        with trace.span("buildcache.journal_replay", cache=self._desc) as sp:
            entries = 0
            for line in journal.decode().splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    # a torn final line is the expected crash artifact:
                    # everything before it is intact, so keep going
                    metrics.inc("buildcache.journal_torn_lines")
                    continue
                self._apply_record(record, mark_dirty=True)
                entries += 1
            self._journal_entries = entries
            if entries:
                self._revision += 1
            sp.set(entries=entries)
        metrics.inc("buildcache.journal_replays")

    def _apply_record(self, record: dict, mark_dirty: bool) -> None:
        for table in _TABLES:
            for key, value in dict(record.get(table, {})).items():
                shard = self._shard_for(key)
                shard.table(table)[key] = value
                if mark_dirty:
                    shard.dirty = True

    # ------------------------------------------------------------------
    # delta refresh: pick up another writer's save without a reopen
    # ------------------------------------------------------------------
    def refresh(self) -> int:
        """Re-read the manifest and invalidate only changed shards.

        Returns the number of shards whose cached state was dropped
        (0 = the manifest digest was unchanged, nothing was re-walked).
        Dirty shards (journal overlay entries) are never reset — their
        overlay re-merges over the fresh on-disk document on the next
        lazy load.  v1 monoliths have no manifest to diff and are left
        alone (reopen to pick up external changes).
        """
        with self._lock:
            try:
                data = json.loads(self.backend.get(INDEX_NAME))
            except MissingBlobError:
                return 0
            except TransientBackendError:
                raise
            except (BackendError, json.JSONDecodeError) as e:
                raise IndexFormatError(
                    f"corrupt buildcache index at {self.manifest_path}: {e}"
                ) from e
            if not isinstance(data, dict) or data.get("version") == 1:
                return 0
            version = data.get("version")
            if version not in (2, INDEX_VERSION):
                raise IndexFormatError(
                    f"buildcache index version {version!r} is not supported "
                    f"(expected 1, 2, or {INDEX_VERSION})"
                )
            new_digest = data.get("digest") if version == INDEX_VERSION else None
            # same manifest digest -> same shards -> byte-identical sidecar
            if new_digest is not None and new_digest == self._manifest_digest:
                return 0  # provably unchanged: zero shard work
            shards = self._parse_manifest_shards(data, self.manifest_path)
            new_counts = {p: int(e.get("specs", 0)) for p, e in shards.items()}
            new_digests = {
                p: str(e["digest"]) for p, e in shards.items() if e.get("digest")
            }
            if new_digests or self._shard_digests:
                changed = {
                    p
                    for p in set(new_digests) | set(self._shard_digests)
                    if new_digests.get(p) != self._shard_digests.get(p)
                }
            else:
                # v2 manifests carry no digests: fall back to diffing
                # counts + presence (count-preserving rewrites of a
                # shard are invisible here — one reason v3 exists)
                changed = {
                    p
                    for p in set(new_counts) | set(self._manifest_counts)
                    if new_counts.get(p) != self._manifest_counts.get(p)
                }
            if not changed and new_digest == self._manifest_digest:
                return 0
            with trace.span(
                "buildcache.index_refresh", cache=self._desc
            ) as sp:
                dropped = 0
                for prefix in changed:
                    shard = self._shards.get(prefix)
                    if shard is None or shard.dirty:
                        continue  # never parsed, or overlay re-merges
                    if shard.loaded:
                        shard.reset()
                        dropped += 1
                self._on_disk = set(shards)
                self._manifest_counts = new_counts
                self._shard_digests = new_digests
                self._manifest_digest = new_digest
                self._summary_sha = (
                    data.get("summary_sha256") if version == INDEX_VERSION else None
                ) or None
                self._summaries = None  # sidecar re-validated lazily
                self._fully_loaded = all(
                    p in self._shards and self._shards[p].loaded
                    for p in self._on_disk
                )
                self._revision += 1
                sp.set(changed=len(changed), dropped=dropped)
            metrics.inc("buildcache.index_refreshes")
            metrics.inc("buildcache.shards_invalidated", len(changed))
            return len(changed)

    # ------------------------------------------------------------------
    # lazy shard loading
    # ------------------------------------------------------------------
    def _ensure_loaded(self, dag_hash: str) -> _Shard:
        prefix = self.shard_prefix(dag_hash)
        with self._lock:
            shard = self._shard_for(dag_hash)
            if shard.loaded or prefix not in self._on_disk:
                shard.loaded = True
                return shard
            self._load_shard(shard)
            return shard

    def _load_shard(self, shard: _Shard) -> None:
        key = self._shard_key(shard.prefix)
        with trace.span("buildcache.shard_load", shard=shard.prefix) as sp:
            try:
                document = json.loads(self.backend.get(key))
            except MissingBlobError:
                document = {}
            except TransientBackendError:
                raise
            except (BackendError, json.JSONDecodeError) as e:
                raise IndexFormatError(
                    f"corrupt buildcache index shard {self._desc}/{key}: {e}"
                ) from e
            # journal overlay entries win over the on-disk document
            for table in _TABLES:
                disk = dict(document.get(table, {}))
                disk.update(shard.table(table))
                setattr(shard, table, disk)
            shard.loaded = True
            sp.set(specs=len(shard.specs))
        metrics.inc("buildcache.shard_loads")

    def load_all(self) -> None:
        """Parse every on-disk shard (full-document consumers only)."""
        with self._lock:
            if self._fully_loaded:
                return
            for prefix in sorted(self._on_disk):
                shard = self._shards.get(prefix)
                if shard is None:
                    shard = self._shards[prefix] = _Shard(prefix)
                if not shard.loaded:
                    self._load_shard(shard)
            self._fully_loaded = True

    # ------------------------------------------------------------------
    # summary sidecar
    # ------------------------------------------------------------------
    def _load_summaries(self) -> Dict[str, SortedHashSummary]:
        """The parsed summary sidecar, or ``{}`` when unusable.

        Unusable covers: the manifest records no sidecar hash (v1/v2),
        the sidecar is absent, its bytes do not hash to the manifest's
        record (a crash between the sidecar and manifest writes, a
        foreign writer, a flipped byte), or it fails to parse.  All of
        those degrade to the plain shard-read path — a summary is an
        accelerator, never an authority the manifest does not vouch for.
        """
        with self._lock:
            if self._summaries is not None:
                return self._summaries
            self._summaries = {}
            if self._summary_sha is None:
                return self._summaries
            try:
                raw = self.backend.get(SUMMARY_NAME)
            except MissingBlobError:
                return self._summaries
            except TransientBackendError:
                raise
            except BackendError:
                metrics.inc("buildcache.summary_corrupt")
                return self._summaries
            with trace.span("buildcache.summary_load", cache=self._desc) as sp:
                parsed: Dict[str, SortedHashSummary] = {}
                try:
                    if hashlib.sha256(raw).hexdigest() != self._summary_sha:
                        raise SummaryFormatError("sidecar bytes do not match")
                    data = json.loads(raw)
                    for prefix, document in dict(data["shards"]).items():
                        parsed[prefix] = summary_from_document(document)
                except (
                    SummaryFormatError, ValueError, KeyError, AttributeError,
                    TypeError,
                ):
                    metrics.inc("buildcache.summary_corrupt")
                    sp.set(corrupt=True)
                    return self._summaries
                self._summaries = parsed
                sp.set(shards=len(parsed))
            return self._summaries

    def summary_probe(self, dag_hash: str) -> Optional[bool]:
        """What the summary says about ``dag_hash``: ``False`` =
        provably absent from the shard's saved content, ``True`` =
        maybe present (confirm with a shard read), ``None`` = no usable
        summary for that shard."""
        prefix = self.shard_prefix(dag_hash)
        summaries = self._load_summaries()
        entry = summaries.get(prefix)
        if entry is None:
            return None
        return entry.contains(dag_hash)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def has_spec(self, dag_hash: str) -> bool:
        prefix = self.shard_prefix(dag_hash)
        with self._lock:
            shard = self._shards.get(prefix)
            if shard is not None:
                if dag_hash in shard.specs:
                    return True
                if shard.loaded:
                    return False
            if prefix not in self._on_disk:
                return False
        # the shard exists on disk but is not parsed: let the summary
        # answer the (common) negative case without any shard read
        verdict = self.summary_probe(dag_hash)
        if verdict is False:
            metrics.inc("buildcache.summary_hits")
            return False
        present = self.get_spec(dag_hash) is not None
        if verdict is True and not present:
            metrics.inc("buildcache.summary_false_positives")
        return present

    def get_spec(self, dag_hash: str) -> Optional[dict]:
        shard = self._ensure_loaded(dag_hash)
        return shard.specs.get(dag_hash)

    def get_build_spec(self, dag_hash: str) -> Optional[dict]:
        shard = self._ensure_loaded(dag_hash)
        return shard.build_specs.get(dag_hash)

    def external_prefix(self, node_hash: str) -> Optional[str]:
        shard = self._ensure_loaded(node_hash)
        return shard.external_prefixes.get(node_hash)

    def spec_count(self) -> int:
        """Number of indexed specs, without parsing clean shards."""
        with self._lock:
            total = 0
            for prefix in self._on_disk | set(self._shards):
                shard = self._shards.get(prefix)
                if shard is not None and (shard.loaded or shard.dirty):
                    if not shard.loaded and prefix in self._on_disk:
                        # journal overlay on an unparsed shard: the disk
                        # document may already hold some of these hashes,
                        # so counting needs the real union
                        self._load_shard(shard)
                    total += len(shard.specs)
                else:
                    total += self._manifest_counts.get(prefix, 0)
            return total

    def spec_hash_set(self) -> Optional[frozenset]:
        """The exact set of indexed spec hashes without parsing shards,
        or ``None`` when the summaries cannot prove it.

        The set is the union of every in-memory shard's spec table
        (loaded content and journal overlay entries alike — this is
        what keeps ``len(group)`` exact after a ``push`` that has not
        been ``save_index``-ed) and, for every still-unparsed on-disk
        shard, that shard's summary.  One shard without a summary (no
        trusted sidecar) means the answer would be a guess, so the
        caller gets ``None`` and falls back to :meth:`spec_hashes`' full
        walk.
        """
        with self._lock:
            hashes: Set[str] = set()
            for shard in self._shards.values():
                hashes.update(shard.specs)
            if self._fully_loaded:
                return frozenset(hashes)
            summaries = self._load_summaries()
            for prefix in self._on_disk:
                shard = self._shards.get(prefix)
                if shard is not None and shard.loaded:
                    continue
                entry = summaries.get(prefix)
                if entry is None:
                    return None
                hashes.update(entry.hashes())
            metrics.inc("buildcache.summary_enumerations")
            return frozenset(hashes)

    def spec_hashes(self) -> Iterator[str]:
        """All indexed spec hashes, served from the exact summary when
        one exists (zero shard reads) and a full shard walk otherwise."""
        hashes = self.spec_hash_set()
        if hashes is None:
            self.load_all()
            with self._lock:
                hashes = frozenset(
                    h for shard in self._shards.values() for h in shard.specs
                )
        return iter(sorted(hashes))

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def record_push(
        self,
        specs: Dict[str, dict],
        build_specs: Dict[str, dict],
        external_prefixes: Dict[str, str],
    ) -> None:
        """Apply one push to the in-memory overlay and append it to the
        durable journal (fsynced: survives an immediate process kill)."""
        record = {
            "specs": specs,
            "build_specs": build_specs,
            "external_prefixes": external_prefixes,
        }
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            self._apply_record(record, mark_dirty=True)
            with trace.span("buildcache.journal_append") as sp:
                self.backend.append_line(JOURNAL_NAME, line.encode())
                self._journal_entries += 1
                self._revision += 1
                sp.set(bytes=len(line))
        metrics.inc("buildcache.journal_appends")

    def _write_dirty_shards(self) -> int:
        """Fold + write every dirty shard; returns shards written and
        records fresh content digests for them."""
        written = 0
        for prefix in sorted(self._shards):
            shard = self._shards[prefix]
            if not shard.dirty:
                continue
            if not shard.loaded and prefix in self._on_disk:
                self._load_shard(shard)  # merge under the overlay
            with trace.span("buildcache.shard_save", shard=prefix) as sp:
                payload = _canonical(shard.to_document())
                self.backend.put(self._shard_key(prefix), payload)
                sp.set(specs=len(shard.specs), bytes=len(payload))
            shard.dirty = False
            shard.loaded = True
            self._on_disk.add(prefix)
            self._manifest_counts[prefix] = len(shard.specs)
            self._shard_digests[prefix] = hashlib.sha256(payload).hexdigest()
            written += 1
            metrics.inc("buildcache.shard_saves")
        return written

    def save(self) -> int:
        """Fold the journal into shards, write dirty shards atomically,
        rewrite the summary sidecar and then the manifest (which records
        the sidecar's sha256), and truncate the journal.

        Returns the number of shard files written.
        """
        with self._lock:
            previous_summaries = self._load_summaries()
            written = self._write_dirty_shards()
            # v2 -> v3 migration: clean on-disk shards have no recorded
            # digest, so read them once to digest (and summarize) their
            # canonical content
            for prefix in sorted(self._on_disk):
                if prefix in self._shard_digests:
                    continue
                shard = self._shards.get(prefix)
                if shard is None:
                    shard = self._shards[prefix] = _Shard(prefix)
                if not shard.loaded:
                    self._load_shard(shard)
                payload = _canonical(shard.to_document())
                self._shard_digests[prefix] = hashlib.sha256(payload).hexdigest()
                self._manifest_counts[prefix] = len(shard.specs)

            summaries: Dict[str, SortedHashSummary] = {}
            for prefix in sorted(self._on_disk):
                shard = self._shards.get(prefix)
                if shard is not None and shard.loaded:
                    summaries[prefix] = SortedHashSummary(shard.specs)
                    continue
                # clean, unparsed shard: its digest is unchanged, so the
                # previous sidecar entry still holds
                previous = previous_summaries.get(prefix)
                if previous is not None:
                    summaries[prefix] = previous
                    continue
                shard = self._shards.setdefault(prefix, _Shard(prefix))
                self._load_shard(shard)
                summaries[prefix] = SortedHashSummary(shard.specs)
            with trace.span("buildcache.summary_save", cache=self._desc) as sp:
                sidecar = {
                    "version": INDEX_VERSION,
                    "shards": {
                        prefix: summary.to_document()
                        for prefix, summary in summaries.items()
                    },
                }
                payload = _canonical(sidecar)
                self.backend.put(SUMMARY_NAME, payload)
                sp.set(shards=len(summaries), bytes=len(payload))
            self._summaries = summaries
            self._summary_sha = hashlib.sha256(payload).hexdigest()
            metrics.inc("buildcache.summary_saves")

            manifest_digest = self._digest_of(self._shard_digests)
            manifest = {
                "version": INDEX_VERSION,
                "shard_width": SHARD_WIDTH,
                "digest": manifest_digest,
                "summary_sha256": self._summary_sha,
                "shards": {
                    prefix: {
                        "specs": self._manifest_counts.get(prefix, 0),
                        "digest": self._shard_digests[prefix],
                    }
                    for prefix in sorted(self._on_disk)
                },
            }
            self.backend.put(INDEX_NAME, _canonical(manifest))
            self._manifest_digest = manifest_digest
            self._revision += 1
            self._truncate_journal()
            return written

    @staticmethod
    def _digest_of(shard_digests: Dict[str, str]) -> str:
        lines = "\n".join(
            f"{prefix}:{digest}" for prefix, digest in sorted(shard_digests.items())
        )
        return hashlib.sha256(lines.encode()).hexdigest()

    def _truncate_journal(self) -> None:
        self.backend.delete(JOURNAL_NAME)
        self._journal_entries = 0

    # ------------------------------------------------------------------
    @property
    def journal_entries(self) -> int:
        return self._journal_entries

    def __repr__(self) -> str:
        return (
            f"<ShardedIndex {self._desc} shards={len(self._shards)} "
            f"journal={self._journal_entries}>"
        )
