"""Per-shard index summaries: O(1) negative lookups without shard reads.

The federated-mirror problem (ROADMAP "kill the 741 ms union"): every
``MirrorGroup`` miss-path lookup and every union enumeration walks every
mirror's full shard set, so the cost of answering "no, this hash is not
cached anywhere" grows with mirrors × specs — exactly the cost the
paper's binary-reuse story says must stay off the concretization hot
path.  Guix/Nix substitute servers answer the same question from a
locally cached narinfo/summary before any remote round-trip; this
module is that summary for the sharded index.

A summary is the sorted table of one shard's full spec hashes.  It is
*exact*: membership has no false positives or false negatives, and the
summary enumerates its hashes, which lets a ``MirrorGroup`` build its
merged union view without parsing a single shard document.  The
no-false-negative half is the one that matters most — a false negative
would silently hide a cached spec — and the property test in
``tests/buildcache/test_summary.py`` hammers it.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, List

from .backend import BuildCacheError

__all__ = [
    "SummaryFormatError",
    "SortedHashSummary",
    "summary_from_document",
]


class SummaryFormatError(BuildCacheError):
    """Raised for corrupt or unsupported summary documents."""


class SortedHashSummary:
    """A sorted table of one shard's full spec hashes."""

    def __init__(self, hashes: Iterable[str]):
        self._table: List[str] = sorted(set(hashes))

    def contains(self, dag_hash: str) -> bool:
        i = bisect_left(self._table, dag_hash)
        return i < len(self._table) and self._table[i] == dag_hash

    def hashes(self) -> List[str]:
        return list(self._table)

    def to_document(self) -> dict:
        return {"hashes": self._table}

    def __repr__(self) -> str:
        return f"<SortedHashSummary count={len(self._table)}>"


def summary_from_document(document: dict) -> SortedHashSummary:
    """Deserialize one shard's summary document."""
    if not isinstance(document, dict):
        raise SummaryFormatError("summary document is not an object")
    # the sidecar is machine-written within a versioned format, so a key
    # this reader does not know is corruption (or version skew a bumped
    # INDEX_VERSION should have caught), not extensibility
    unknown = set(document) - {"hashes"}
    if unknown:
        raise SummaryFormatError(f"summary: unknown key(s) {sorted(unknown)}")
    hashes = document.get("hashes")
    if not isinstance(hashes, list):
        raise SummaryFormatError("summary: 'hashes' is not a list")
    return SortedHashSummary(str(h) for h in hashes)
