"""Cache/store integrity checks: full static verification of on-disk
formats.

The buildcache (PR 5–6) and installer verify their formats *lazily*,
one entry at a time, at read time.  These checkers audit the whole
surface at once — every shard, every blob, every sidecar — so silent
corruption and drift are caught before a consumer trips over them.

``CACHE`` codes (over a :class:`~repro.buildcache.cache.BuildCache`):

* CACHE001 (error) — a shard's on-disk bytes do not hash to the digest
  the v3 manifest records for it (or the shard is missing/unparseable).
* CACHE002 (error) — the manifest's own digest does not equal the
  recomputation over its sorted per-shard digest lines.
* CACHE003 — summary sidecar problems: a sidecar whose bytes do not
  hash to the sha256 the manifest records, or that is unparseable, is a
  warning (readers ignore it: slower, never wrong); sidecar content
  that disagrees with the shard documents is an error — it claims
  hashes absent (false negatives) or present (phantoms).
* CACHE004 (note/warning) — journal entries not yet folded into shards
  (note); an unparseable journal line (warning).
* CACHE005 (error) — blob-entry integrity: a payload file whose bytes
  do not match the signed manifest (torn blob), missing or mismatched
  ``meta.json``, files missing from or not covered by the manifest.
* CACHE006 (warning) — an orphaned blob entry: payload on disk under a
  hash the index does not know.
* CACHE007 — signature problems: an unparseable/malformed
  ``manifest.sig`` is always an error; with a trust store in the
  context, a signature that fails HMAC verification is an error and a
  missing signature is a warning.

``STORE`` codes (over an install store / ground cache):

* STORE001 (error) — ground-cache sidecar inconsistency: incomplete
  payload/sidecar pair, unparseable sidecar, wrong format version, a
  sidecar stamped for a different key, or a payload digest mismatch.
* STORE002 (warning) — install-DB vs install-tree drift: an
  install-prefix-shaped directory in the store no record claims, or a
  leftover ``.staging`` tree.
* STORE003 (error) — an installed binary embeds a path that resolves
  neither into the store nor to any known prefix: an unrelocated
  build-machine prefix leaked through extraction.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..binary.mockelf import BinaryFormatError, MockBinary
from .diagnostics import Diagnostic, Severity
from .registry import checker

__all__ = []


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _get(ctx, key: str) -> Optional[bytes]:
    from ..buildcache.backend import BackendError, MissingBlobError

    try:
        return ctx.cache.backend.get(key)
    except (MissingBlobError, BackendError):
        return None


def _manifest_of(ctx) -> Optional[dict]:
    """The parsed ``index.json`` manifest, memoized on the context
    (several checkers anchor on it).  ``None`` when absent/corrupt —
    the CLI already refuses to open such a cache with a CLIError."""
    if hasattr(ctx, "_audit_manifest"):
        return ctx._audit_manifest
    from ..buildcache.index import INDEX_NAME

    manifest: Optional[dict] = None
    raw = _get(ctx, INDEX_NAME)
    if raw is not None:
        try:
            parsed = json.loads(raw)
            if isinstance(parsed, dict):
                manifest = parsed
        except ValueError:  # bad JSON or bad UTF-8
            manifest = None
    ctx._audit_manifest = manifest
    return manifest


def _shard_documents(ctx) -> Dict[str, Tuple[Optional[dict], Optional[str]]]:
    """prefix -> (parsed shard document or None, content digest or None),
    for every shard the manifest names.  Memoized on the context."""
    if hasattr(ctx, "_audit_shards"):
        return ctx._audit_shards
    from ..buildcache.index import SHARD_DIR

    shards: Dict[str, Tuple[Optional[dict], Optional[str]]] = {}
    manifest = _manifest_of(ctx)
    for prefix in sorted((manifest or {}).get("shards", {})):
        raw = _get(ctx, f"{SHARD_DIR}/{prefix}.json")
        if raw is None:
            shards[prefix] = (None, None)
            continue
        try:
            document = json.loads(raw)
        except ValueError:  # bad JSON or bad UTF-8
            document = None
        shards[prefix] = (document, _sha(raw))
    ctx._audit_shards = shards
    return shards


@checker(
    "cache.shards",
    codes=("CACHE001", "CACHE002"),
    requires=("cache",),
    description="shard bytes match the manifest's content digests",
)
def check_shards(ctx) -> Iterable[Diagnostic]:
    from ..buildcache.index import INDEX_NAME, INDEX_VERSION, ShardedIndex

    manifest = _manifest_of(ctx)
    if manifest is None:
        if _get(ctx, INDEX_NAME) is not None:
            yield Diagnostic(
                "CACHE002",
                Severity.ERROR,
                f"{INDEX_NAME} exists but is not a parseable JSON object; "
                "no shard can be verified",
            )
        return
    if manifest.get("version") != INDEX_VERSION:
        yield Diagnostic(
            "CACHE002",
            Severity.WARNING,
            f"manifest declares version {manifest.get('version')!r}, not "
            f"the supported v{INDEX_VERSION}; digests cannot be verified",
        )
        return
    width = manifest.get("shard_width")
    recorded: Dict[str, str] = {}
    for prefix, entry in sorted(manifest.get("shards", {}).items()):
        recorded[prefix] = str((entry or {}).get("digest", ""))
    documents = _shard_documents(ctx)
    for prefix, digest in sorted(recorded.items()):
        if len(prefix) != width:
            yield Diagnostic(
                "CACHE001",
                Severity.ERROR,
                f"shard prefix {prefix!r} does not match the manifest's "
                f"shard_width {width!r}",
            )
        document, actual = documents.get(prefix, (None, None))
        if actual is None:
            yield Diagnostic(
                "CACHE001",
                Severity.ERROR,
                f"manifest names shard {prefix} but index.d/{prefix}.json "
                "is missing",
            )
            continue
        if document is None:
            yield Diagnostic(
                "CACHE001",
                Severity.ERROR,
                f"shard index.d/{prefix}.json is not parseable JSON",
            )
        if actual != digest:
            yield Diagnostic(
                "CACHE001",
                Severity.ERROR,
                f"shard index.d/{prefix}.json hashes to {actual[:12]} but "
                f"the manifest records {digest[:12]}",
            )
        if document is None:
            continue
        specs = document.get("specs", {})
        count = (manifest.get("shards", {}).get(prefix) or {}).get("specs")
        if count != len(specs):
            yield Diagnostic(
                "CACHE001",
                Severity.ERROR,
                f"manifest records {count!r} spec(s) for shard {prefix} "
                f"but the shard document holds {len(specs)}",
            )
        for h in sorted(specs):
            if not str(h).startswith(prefix):
                yield Diagnostic(
                    "CACHE001",
                    Severity.ERROR,
                    f"shard {prefix} holds spec {str(h)[:12]} that belongs "
                    "in another shard",
                )
    stamped = manifest.get("digest")
    recomputed = ShardedIndex._digest_of(recorded)
    if stamped != recomputed:
        yield Diagnostic(
            "CACHE002",
            Severity.ERROR,
            f"manifest digest {str(stamped)[:12]} does not match "
            f"{recomputed[:12]} recomputed from its sorted per-shard "
            "digest lines",
        )


@checker(
    "cache.summary",
    codes=("CACHE003",),
    requires=("cache",),
    description="summary sidecar agrees with the manifest and shards",
)
def check_summary(ctx) -> Iterable[Diagnostic]:
    from ..buildcache.index import INDEX_VERSION, SUMMARY_NAME
    from ..buildcache.summary import SummaryFormatError, summary_from_document

    raw = _get(ctx, SUMMARY_NAME)
    if raw is None:
        return  # no sidecar is a valid (slower) configuration
    try:
        sidecar = json.loads(raw)
        if not isinstance(sidecar, dict):
            raise ValueError("sidecar is not an object")
    except ValueError as e:
        yield Diagnostic(
            "CACHE003",
            Severity.WARNING,
            f"summary sidecar {SUMMARY_NAME} is unreadable and will be "
            f"ignored by readers: {e}",
        )
        return
    if sidecar.get("version") != INDEX_VERSION:
        yield Diagnostic(
            "CACHE003",
            Severity.WARNING,
            f"summary sidecar declares version {sidecar.get('version')!r}, "
            f"not the supported v{INDEX_VERSION}; readers ignore it",
        )
        return
    recorded = (_manifest_of(ctx) or {}).get("summary_sha256")
    if recorded != _sha(raw):
        yield Diagnostic(
            "CACHE003",
            Severity.WARNING,
            f"summary sidecar bytes hash to {_sha(raw)[:12]}, not the "
            f"{str(recorded)[:12]} the manifest records (torn write, "
            "foreign writer, or corruption); readers fall back to shard "
            "reads",
        )
    # whether or not readers trust it, the sidecar's content must agree
    # exactly with the shard documents
    documents = _shard_documents(ctx)
    summaries = dict(sidecar.get("shards", {}))
    for prefix in sorted(set(documents) | set(summaries)):
        document, _digest = documents.get(prefix, (None, None))
        shard_hashes: Set[str] = set((document or {}).get("specs", {}))
        summary_doc = summaries.get(prefix)
        if summary_doc is None:
            if shard_hashes:
                yield Diagnostic(
                    "CACHE003",
                    Severity.ERROR,
                    f"summary sidecar covers no entry for shard {prefix}; "
                    f"it would report its {len(shard_hashes)} spec(s) "
                    "absent",
                )
            continue
        try:
            summary = summary_from_document(summary_doc)
        except (SummaryFormatError, AttributeError, TypeError) as e:
            yield Diagnostic(
                "CACHE003",
                Severity.ERROR,
                f"summary entry for shard {prefix} is corrupt: {e}",
            )
            continue
        for h in sorted(h for h in shard_hashes if not summary.contains(h)):
            yield Diagnostic(
                "CACHE003",
                Severity.ERROR,
                f"summary for shard {prefix} reports spec {h[:12]} absent "
                "although the shard document holds it (a false negative)",
            )
        for h in sorted(set(summary.hashes()) - shard_hashes):
            yield Diagnostic(
                "CACHE003",
                Severity.ERROR,
                f"summary for shard {prefix} enumerates spec {h[:12]} "
                "that the shard document does not hold (a phantom entry)",
            )


@checker(
    "cache.journal",
    codes=("CACHE004",),
    requires=("cache",),
    description="push-journal entries still awaiting a save_index fold",
)
def check_journal(ctx) -> Iterable[Diagnostic]:
    from ..buildcache.index import JOURNAL_NAME

    raw = _get(ctx, JOURNAL_NAME)
    if raw is None:
        return
    lines = [line for line in raw.decode(errors="replace").splitlines() if line.strip()]
    bad = 0
    for line in lines:
        try:
            json.loads(line)
        except json.JSONDecodeError:
            bad += 1
    if bad:
        yield Diagnostic(
            "CACHE004",
            Severity.WARNING,
            f"{bad} of {len(lines)} journal line(s) are unparseable and "
            "will be lost at the next replay",
        )
    if len(lines) - bad:
        yield Diagnostic(
            "CACHE004",
            Severity.NOTE,
            f"{len(lines) - bad} pushed entr"
            f"{'y' if len(lines) - bad == 1 else 'ies'} await a "
            "save_index fold into shards (durable, but every open "
            "replays them)",
        )


def _blob_hashes(ctx) -> List[str]:
    from ..buildcache.backend import BackendError, MissingBlobError

    try:
        _files, dirs = ctx.cache.backend.list_tree("blobs")
    except (MissingBlobError, BackendError):
        return []
    return sorted(d for d in dirs if "/" not in d)


@checker(
    "cache.entries",
    codes=("CACHE005", "CACHE006", "CACHE007"),
    requires=("cache",),
    description="blob payloads, metadata, and signatures verify",
)
def check_entries(ctx) -> Iterable[Diagnostic]:
    from ..buildcache.backend import BackendError, MissingBlobError
    from ..buildcache.signing import SignatureError

    indexed: Optional[Set[str]] = None
    try:
        indexed = set(ctx.cache.spec_hash_set())
    except Exception:
        pass  # unreadable index: CACHE001 reports it; skip orphan checks
    for dag_hash in _blob_hashes(ctx):
        entry = f"blobs/{dag_hash}"
        short = dag_hash[:12]
        if indexed is not None and dag_hash not in indexed:
            yield Diagnostic(
                "CACHE006",
                Severity.WARNING,
                f"blob entry {short} is not in the index (orphaned "
                "payload; unreachable by consumers)",
            )
        manifest_bytes = _get(ctx, f"{entry}/manifest.json")
        if manifest_bytes is None:
            yield Diagnostic(
                "CACHE005",
                Severity.ERROR,
                f"blob entry {short} has no manifest.json; nothing about "
                "its payload can be verified",
            )
            continue
        try:
            manifest = json.loads(manifest_bytes)
            if not isinstance(manifest, dict):
                raise ValueError("manifest is not an object")
        except ValueError as e:
            yield Diagnostic(
                "CACHE005",
                Severity.ERROR,
                f"blob entry {short} has an unparseable manifest: {e}",
            )
            continue

        # signature (CACHE007)
        sig_bytes = _get(ctx, f"{entry}/manifest.sig")
        if sig_bytes is not None:
            signature = None
            try:
                signature = json.loads(sig_bytes)
                if not isinstance(signature, dict):
                    raise ValueError("signature is not an object")
                for field in ("key_id", "algorithm", "signature"):
                    if field not in signature:
                        raise ValueError(f"missing field {field!r}")
            except ValueError as e:
                signature = None
                yield Diagnostic(
                    "CACHE007",
                    Severity.ERROR,
                    f"blob entry {short} has a malformed manifest.sig: {e}",
                )
            if signature is not None and signature.get("algorithm") != (
                "hmac-sha256"
            ):
                # TrustStore.verify never reads the algorithm field, so a
                # tampered one would otherwise still "verify"
                yield Diagnostic(
                    "CACHE007",
                    Severity.ERROR,
                    f"blob entry {short}: signature declares unknown "
                    f"algorithm {signature.get('algorithm')!r}",
                )
            if signature is not None and ctx.trust is not None:
                try:
                    ctx.trust.verify(manifest_bytes, signature)
                except SignatureError as e:
                    yield Diagnostic(
                        "CACHE007",
                        Severity.ERROR,
                        f"blob entry {short} fails signature "
                        f"verification: {e}",
                    )
                else:
                    named = [
                        key
                        for key in ctx.trust.keys()
                        if key.key_id == signature.get("key_id")
                    ]
                    if named and signature.get("key_name") != named[0].name:
                        yield Diagnostic(
                            "CACHE007",
                            Severity.ERROR,
                            f"blob entry {short}: signature names key "
                            f"{signature.get('key_name')!r} but its key_id "
                            f"belongs to {named[0].name!r}",
                        )
        elif ctx.trust is not None:
            yield Diagnostic(
                "CACHE007",
                Severity.WARNING,
                f"blob entry {short} is unsigned; consumers with this "
                "trust store will refuse to extract it",
            )

        if manifest.get("hash") != dag_hash:
            yield Diagnostic(
                "CACHE005",
                Severity.ERROR,
                f"blob entry {short} carries a manifest for "
                f"{str(manifest.get('hash'))[:12]} (misfiled entry)",
            )
        meta_bytes = _get(ctx, f"{entry}/meta.json")
        if meta_bytes is None:
            yield Diagnostic(
                "CACHE005",
                Severity.ERROR,
                f"blob entry {short} has no meta.json",
            )
        elif _sha(meta_bytes) != manifest.get("meta"):
            yield Diagnostic(
                "CACHE005",
                Severity.ERROR,
                f"blob entry {short}: meta.json does not match the digest "
                "its manifest records",
            )

        expected: Dict[str, str] = dict(manifest.get("files", {}))
        try:
            names, _dirs = ctx.cache.backend.list_tree(f"{entry}/files")
        except (MissingBlobError, BackendError):
            names = []
        for rel in names:
            digest = expected.pop(rel, None)
            data = _get(ctx, f"{entry}/files/{rel}")
            if digest is None:
                yield Diagnostic(
                    "CACHE005",
                    Severity.ERROR,
                    f"blob entry {short}: file {rel!r} is not covered by "
                    "the manifest",
                )
                continue
            if data is None or _sha(data) != digest:
                yield Diagnostic(
                    "CACHE005",
                    Severity.ERROR,
                    f"blob entry {short}: payload file {rel!r} does not "
                    "match its manifest digest (torn or tampered blob)",
                )
        for rel in sorted(expected):
            yield Diagnostic(
                "CACHE005",
                Severity.ERROR,
                f"blob entry {short}: manifest covers {rel!r} but the "
                "payload does not contain it",
            )


# ---------------------------------------------------------------------------
# store-side checks
# ---------------------------------------------------------------------------
@checker(
    "store.groundcache",
    codes=("STORE001",),
    requires=("ground_cache_dir",),
    description="ground-cache payload/sidecar pairs are consistent",
)
def check_groundcache(ctx) -> Iterable[Diagnostic]:
    from ..concretize.groundcache import CACHE_FORMAT

    directory = Path(ctx.ground_cache_dir)
    if not directory.is_dir():
        return
    stems = sorted(
        {
            p.name[: -len(p.suffix)]
            for p in directory.glob("ground-*")
            if p.suffix in (".pkl", ".json")
        }
    )
    for stem in stems:
        key = stem[len("ground-"):]
        payload_path = directory / f"{stem}.pkl"
        sidecar_path = directory / f"{stem}.json"
        short = key[:12] or stem
        if not payload_path.exists() or not sidecar_path.exists():
            missing = "payload" if not payload_path.exists() else "sidecar"
            yield Diagnostic(
                "STORE001",
                Severity.ERROR,
                f"ground-cache entry {short} is missing its {missing} "
                "(incomplete pair; the solver will ignore it)",
            )
            continue
        try:
            sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
            if not isinstance(sidecar, dict):
                raise ValueError("sidecar is not an object")
        except (OSError, ValueError) as e:
            yield Diagnostic(
                "STORE001",
                Severity.ERROR,
                f"ground-cache entry {short} has an unreadable sidecar: {e}",
            )
            continue
        if sidecar.get("format") != CACHE_FORMAT:
            yield Diagnostic(
                "STORE001",
                Severity.ERROR,
                f"ground-cache entry {short} has unsupported format "
                f"{sidecar.get('format')!r} (expected {CACHE_FORMAT})",
            )
            continue
        if sidecar.get("key") != key:
            yield Diagnostic(
                "STORE001",
                Severity.ERROR,
                f"ground-cache sidecar {sidecar_path.name} is stamped for "
                "a different solve key",
            )
            continue
        try:
            payload = payload_path.read_bytes()
        except OSError as e:
            yield Diagnostic(
                "STORE001",
                Severity.ERROR,
                f"ground-cache entry {short} has an unreadable payload: {e}",
            )
            continue
        if _sha(payload) != sidecar.get("sha256"):
            yield Diagnostic(
                "STORE001",
                Severity.ERROR,
                f"ground-cache entry {short}: payload bytes do not match "
                "the sidecar's digest",
            )


#: what Builder.prefix_name emits: ``name-version-<16 hex chars>``
_PREFIX_NAME_RE = re.compile(r".+-[0-9a-f]{16}$")


@checker(
    "store.tree",
    codes=("STORE002",),
    requires=("database", "store"),
    description="every install-prefix directory is claimed by a record",
)
def check_tree(ctx) -> Iterable[Diagnostic]:
    root = Path(ctx.store)
    if not root.is_dir():
        return
    claimed = {
        str(Path(record.prefix).resolve()) for record in ctx.database
    }
    for entry in sorted(root.iterdir()):
        if not entry.is_dir():
            continue
        if entry.name == ".staging":
            if any(entry.iterdir()):
                yield Diagnostic(
                    "STORE002",
                    Severity.WARNING,
                    f"leftover staging tree {entry} (an interrupted "
                    "install or splice; safe to delete)",
                )
            continue
        if not _PREFIX_NAME_RE.match(entry.name):
            continue
        if str(entry.resolve()) not in claimed:
            yield Diagnostic(
                "STORE002",
                Severity.WARNING,
                f"install prefix {entry.name} exists in the store but no "
                "database record claims it (orphaned install)",
            )


def _collapse_padding(path: str) -> str:
    """Normalize ``/./``-padded prefixes without touching the disk."""
    while "/./" in path:
        path = path.replace("/./", "/")
    if path.endswith("/."):
        path = path[:-2]
    return path


@checker(
    "store.relocation",
    codes=("STORE003",),
    requires=("database",),
    description="installed binaries embed no unrelocated foreign prefixes",
)
def check_relocation(ctx) -> Iterable[Diagnostic]:
    store_root = (
        str(Path(ctx.store_root).resolve()) if ctx.store_root else None
    )
    # every prefix the database knows (install prefixes + externals) is
    # a legitimate embedding; anything else that does not exist on disk
    # is a build-machine leftover that relocation failed to rewrite
    allowed: Set[str] = set()
    for record in ctx.database:
        allowed.add(_collapse_padding(str(record.prefix)))
        for node in record.spec.traverse():
            if node.external and node.external_prefix:
                allowed.add(_collapse_padding(str(node.external_prefix)))

    def sanctioned(path: str) -> bool:
        collapsed = _collapse_padding(path)
        candidates = {path, collapsed}
        for candidate in candidates:
            for base in allowed:
                if candidate == base or candidate.startswith(base + "/"):
                    return True
            if store_root is not None and (
                candidate == store_root
                or candidate.startswith(store_root + "/")
            ):
                return True
            if Path(candidate).exists():
                return True
        return False

    for record in ctx.database:
        if record.spec.external:
            continue
        prefix = Path(record.prefix)
        reported: Set[str] = set()
        for sub in ("lib", "bin"):
            directory = prefix / sub
            if not directory.is_dir():
                continue
            for path in sorted(directory.iterdir()):
                if not path.is_file():
                    continue
                try:
                    binary = MockBinary.read(path)
                except (BinaryFormatError, OSError):
                    continue
                for embedded in list(binary.rpaths) + list(binary.path_blob):
                    if embedded in reported or sanctioned(embedded):
                        continue
                    reported.add(embedded)
                    yield Diagnostic(
                        "STORE003",
                        Severity.ERROR,
                        f"binary {path.name} of {record.spec.short_str()} "
                        f"embeds unrelocated prefix {embedded!r} (not in "
                        "this store and absent on disk)",
                        package=record.spec.name,
                    )
