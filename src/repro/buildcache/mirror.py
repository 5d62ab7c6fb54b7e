"""Mirror groups: an ordered list of buildcaches, consulted in order.

This is the substitutes model of Guix ("Reproducible and
User-Controlled Software Environments in HPC with Guix") applied to the
paper's Section 6 evaluation, which runs against *two* caches at once —
a small local buildcache and a ~20k-spec public one.  A
:class:`MirrorGroup` composes any number of :class:`~repro.buildcache.
cache.BuildCache` instances into one cache-shaped object:

* **reads** (``in`` / ``fetch``) are first-hit-wins down the mirror
  list;
* ``all_specs`` is the union over all mirrors, de-duplicated by
  ``dag_hash`` with the *first* mirror that indexes a hash winning —
  so the concretizer's reuse corpus spans every mirror;
* **writes** (``push`` / ``save_index``) go to the primary (the first
  mirror) only — the local scratch cache, never the public one;
* a mirror that fails **transiently** (:class:`~repro.buildcache.
  backend.TransientBackendError`, e.g. a simulated timeout) is retried
  with exponential backoff, then the group *degrades* to the next
  mirror instead of failing the install;
* a mirror whose index advertises a hash but whose bundle fetch then
  fails (the "index says yes, blob 404s" pathology of real binary
  mirrors) falls through to the next mirror and bumps the
  ``buildcache.mirror_fallbacks`` counter; when no mirror holds the
  bundle the group raises :class:`~repro.buildcache.backend.
  MissingBlobError`, which the installer treats as a miss.

**The merged view** (the federated-index layer, ROADMAP "kill the
741 ms union"): the group keeps one cached union of per-mirror spec-
hash sets, keyed on the tuple of the mirrors' index state tokens
(manifest digest + in-memory revision).  Each mirror's hash set comes
from its index's summary sidecar when the summary is exact (zero shard
reads) and a one-time full walk otherwise, and is re-collected only
when that mirror's token moves — an unchanged mirror is *never*
re-walked, an in-process ``push`` (journal overlay, no ``save_index``
yet) bumps the primary's token so ``len(group)`` stays exact, and
:meth:`MirrorGroup.refresh` picks up other writers' saves by
delta-reloading only their changed shards.  Every membership question
— ``in``, the miss legs of ``fetch``, ``__len__``, ``__iter__``,
``all_specs`` — is answered from the view in O(1) against set lookups,
independent of mirror count and spec count, with *zero* backend
round-trips on negative lookups.  Mirrors whose hash set could not be
collected (every retry failed) stay outside the view and degrade to the
legacy per-mirror walk, so the view never turns a flaky mirror into a
wrong "no".

Observability: every fetch runs under a ``buildcache.mirror_fetch``
span carrying the serving mirror's label, view rebuilds run under
``buildcache.mirror_union_rebuild`` (with how many mirrors actually
re-collected), and per-mirror counters
``buildcache.mirror_{hits,misses,fallbacks,retries}.<label>`` (plus
label-less aggregates) make the fallback behaviour visible in
``--profile`` output and bench JSON.

The group quacks like a single ``BuildCache`` — ``Installer(caches=
[group])`` and the pipelined :class:`~repro.installer.parallel.
PayloadPrefetcher` work unchanged, with ``CachedPayload.source``
carrying which mirror actually served each payload.
"""

from __future__ import annotations

import logging
import time
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from ..obs import metrics, trace
from ..spec import Spec
from .backend import BuildCacheError, MissingBlobError, TransientBackendError
from .cache import BuildCache, CachedPayload

__all__ = ["MirrorGroup"]

logger = logging.getLogger(__name__)

T = TypeVar("T")

#: the process-wide backoff clock.  Every group constructed without an
#: explicit ``sleep`` reads this *at call time*, so tests (and the
#: ``--fetch-jobs`` retry suite) monkeypatch one module attribute and
#: every MirrorGroup anywhere — including the ones the CLI builds
#: internally — goes fake-clock: no wall-clock backoff ever runs while
#: HTTP/simulated transient faults are being exercised.
_default_sleep: Callable[[float], None] = time.sleep


class _MergedView:
    """One immutable union snapshot over the group's mirrors.

    ``sets[i]`` is mirror *i*'s exact spec-hash set, or ``None`` when
    that mirror could not be enumerated (it degraded); ``complete``
    means every mirror contributed, so a miss against ``union`` is a
    definitive miss for the whole group.
    """

    __slots__ = ("tokens", "sets", "union", "complete")

    def __init__(
        self,
        tokens: Tuple,
        sets: List[Optional[FrozenSet[str]]],
    ):
        self.tokens = tokens
        self.sets = sets
        self.union: FrozenSet[str] = frozenset().union(
            *(s for s in sets if s is not None)
        )
        self.complete = all(s is not None for s in sets)


class MirrorGroup:
    """An ordered list of buildcaches with first-hit-wins fallback.

    ``retries`` is the number of *extra* attempts per mirror when an
    operation raises :class:`TransientBackendError`; ``backoff`` is the
    base delay in seconds, doubled per retry (tests pass 0).  ``sleep``
    injects the delay clock (tests pass a recorder); when omitted, the
    module-level :data:`_default_sleep` is consulted at call time, so
    monkeypatching it reaches groups constructed by the CLI too.
    """

    def __init__(
        self,
        mirrors: Sequence[BuildCache],
        retries: int = 2,
        backoff: float = 0.05,
        sleep: Optional[Callable[[float], None]] = None,
    ):
        if not mirrors:
            raise BuildCacheError("a MirrorGroup needs at least one mirror")
        self.mirrors: List[BuildCache] = list(mirrors)
        self.retries = max(int(retries), 0)
        self.backoff = float(backoff)
        self._sleep = sleep
        labels = [m.label for m in self.mirrors]
        if len(set(labels)) != len(labels):
            raise BuildCacheError(
                f"mirror labels must be unique, got {labels} "
                "(pass name=... to BuildCache)"
            )
        self._by_label: Dict[str, BuildCache] = {
            m.label: m for m in self.mirrors
        }
        #: per-mirror (state token, hash set) memo: an unchanged mirror
        #: is never re-enumerated across view rebuilds
        self._hash_sets: Dict[str, Tuple[object, FrozenSet[str]]] = {}
        self._view: Optional[_MergedView] = None

    @property
    def primary(self) -> BuildCache:
        """The write target: the first mirror in the list."""
        return self.mirrors[0]

    @property
    def label(self) -> str:
        return "+".join(m.label for m in self.mirrors)

    # ------------------------------------------------------------------
    # retry / degrade machinery
    # ------------------------------------------------------------------
    def _with_retries(self, mirror: BuildCache, fn: Callable[[], T]) -> T:
        """Run ``fn``, retrying transient faults with backoff.

        Only :class:`TransientBackendError` is retried — corruption and
        missing blobs are deterministic, retrying them wastes
        round-trips.  The loop is bounded to ``retries + 1`` attempts;
        the final failure re-raises immediately — no trailing backoff
        sleep, and no ``mirror_retries`` bump for a retry that never
        happens (exhaustion is the *caller's* fallback, counted there).
        """
        for attempt in range(self.retries + 1):
            try:
                return fn()
            except TransientBackendError as e:
                if attempt >= self.retries:
                    raise
                metrics.inc("buildcache.mirror_retries")
                metrics.inc(f"buildcache.mirror_retries.{mirror.label}")
                delay = self.backoff * (2 ** attempt)
                logger.debug(
                    "mirror %s: transient fault (%s), retry %d/%d in %.3fs",
                    mirror.label, e, attempt + 1, self.retries, delay,
                )
                if delay > 0:
                    (self._sleep or _default_sleep)(delay)
        raise AssertionError("unreachable: the loop returns or raises")

    def _fallback(self, mirror: BuildCache, op: str, error: Exception) -> None:
        metrics.inc("buildcache.mirror_fallbacks")
        metrics.inc(f"buildcache.mirror_fallbacks.{mirror.label}")
        logger.warning(
            "mirror %s failed during %s (%s) — degrading to the next mirror",
            mirror.label, op, error,
        )

    # ------------------------------------------------------------------
    # the cached merged view
    # ------------------------------------------------------------------
    def _merged_view(self) -> _MergedView:
        """The union snapshot, rebuilt only for mirrors whose state
        token moved.  A mirror that fails enumeration contributes
        ``None`` (degrade) and gets a fresh unique token so the next
        call re-attempts it — a flaky mirror is retried, a healthy
        unchanged one is never re-walked."""
        tokens = []
        for mirror in self.mirrors:
            cached = self._hash_sets.get(mirror.label)
            token = mirror.state_token()
            if cached is not None and cached[1] is None:
                token = object()  # failed last time: force a re-attempt
            tokens.append(token)
        tokens = tuple(tokens)
        view = self._view
        if view is not None and view.tokens == tokens:
            return view
        with trace.span(
            "buildcache.mirror_union_rebuild", mirrors=len(self.mirrors)
        ) as sp:
            sets: List[Optional[FrozenSet[str]]] = []
            fresh_tokens = []
            rebuilt = 0
            for mirror in self.mirrors:
                token = mirror.state_token()
                cached = self._hash_sets.get(mirror.label)
                if cached is not None and cached[0] == token and cached[1] is not None:
                    fresh_tokens.append(token)
                    sets.append(cached[1])
                    continue
                try:
                    hashes = frozenset(
                        self._with_retries(mirror, mirror.spec_hash_set)
                    )
                except BuildCacheError as e:
                    self._fallback(mirror, "union", e)
                    self._hash_sets[mirror.label] = (token, None)
                    fresh_tokens.append(object())
                    sets.append(None)
                    continue
                # re-read the token: enumeration itself cannot mutate
                # the index, but pairing the set with the token taken
                # before the walk keeps the memo conservative
                self._hash_sets[mirror.label] = (token, hashes)
                fresh_tokens.append(token)
                sets.append(hashes)
                rebuilt += 1
            view = _MergedView(tuple(fresh_tokens), sets)
            self._view = view
            sp.set(rebuilt=rebuilt, specs=len(view.union),
                   complete=view.complete)
        metrics.inc("buildcache.mirror_union_rebuilds")
        return view

    def refresh(self) -> int:
        """Ask every mirror to delta-reload its index from storage
        (:meth:`BuildCache.refresh_index`): an unchanged manifest
        digest is a no-op, a changed one invalidates only its dirty
        shards, and the merged view rebuilds lazily for exactly the
        mirrors that moved.  Returns total shards invalidated."""
        total = 0
        for mirror in self.mirrors:
            try:
                total += self._with_retries(mirror, mirror.refresh_index)
            except BuildCacheError as e:
                self._fallback(mirror, "refresh", e)
        return total

    def _degraded_mirrors(self, view: _MergedView):
        return [
            mirror
            for mirror, hashes in zip(self.mirrors, view.sets)
            if hashes is None
        ]

    # ------------------------------------------------------------------
    # first-hit-wins reads
    # ------------------------------------------------------------------
    def __contains__(self, dag_hash: str) -> bool:
        view = self._merged_view()
        if dag_hash in view.union:
            return True
        if view.complete:
            return False  # summary-answered negative: zero backend ops
        for mirror in self._degraded_mirrors(view):
            try:
                if self._with_retries(mirror, lambda: dag_hash in mirror):
                    return True
            except BuildCacheError as e:
                self._fallback(mirror, "lookup", e)
        return False

    def fetch(self, dag_hash: str) -> CachedPayload:
        """Fetch the bundle from the first mirror that can serve it.

        Mirrors whose merged-view hash set excludes the hash are
        skipped without any round-trip; a mirror whose index advertises
        the hash but whose fetch fails — missing bundle, exhausted
        retries, corrupt entry — is *not* fatal: the group falls
        through.  After every mirror, a corrupt entry raises
        :class:`BuildCacheError`; otherwise no mirror could serve the
        hash, which raises :class:`MissingBlobError` (a miss).
        """
        with trace.span(
            "buildcache.mirror_fetch",
            hash=dag_hash[:7], mirrors=len(self.mirrors),
        ) as sp:
            view = self._merged_view()
            last_error: Optional[Exception] = None
            corrupt = False
            for mirror, hashes in zip(self.mirrors, view.sets):
                if hashes is not None:
                    if dag_hash not in hashes:
                        metrics.inc("buildcache.mirror_misses")
                        metrics.inc(f"buildcache.mirror_misses.{mirror.label}")
                        continue
                else:
                    try:
                        indexed = self._with_retries(
                            mirror, lambda: dag_hash in mirror
                        )
                    except BuildCacheError as e:
                        self._fallback(mirror, "lookup", e)
                        last_error = e
                        continue
                    if not indexed:
                        metrics.inc("buildcache.mirror_misses")
                        metrics.inc(f"buildcache.mirror_misses.{mirror.label}")
                        continue
                try:
                    payload = self._with_retries(
                        mirror, lambda: mirror.fetch(dag_hash)
                    )
                except BuildCacheError as e:
                    # index hit, bundle unfetchable: the classic
                    # stale-mirror pathology — fall through
                    self._fallback(mirror, "fetch", e)
                    last_error = e
                    corrupt = corrupt or not isinstance(
                        e, (MissingBlobError, TransientBackendError)
                    )
                    continue
                metrics.inc("buildcache.mirror_hits")
                metrics.inc(f"buildcache.mirror_hits.{mirror.label}")
                sp.set(mirror=mirror.label, bytes=payload.size)
                return payload
        detail = f" (last error: {last_error})" if last_error else ""
        error = BuildCacheError if corrupt else MissingBlobError
        raise error(
            f"no mirror in {self.label} could serve cache entry "
            f"{dag_hash}{detail}"
        )

    # ------------------------------------------------------------------
    # union enumeration (all through the cached merged view)
    # ------------------------------------------------------------------
    def _union_hashes(self) -> Set[str]:
        """Every indexed hash across the group; degraded mirrors fall
        back to a direct walk so the union is never silently short."""
        view = self._merged_view()
        if view.complete:
            return set(view.union)
        seen = set(view.union)
        for mirror in self._degraded_mirrors(view):
            try:
                seen.update(self._with_retries(mirror, lambda: set(mirror)))
            except BuildCacheError as e:
                self._fallback(mirror, "union", e)
        return seen

    def spec_hash_set(self) -> frozenset:
        """Duck-type parity with :meth:`BuildCache.spec_hash_set` (a
        group can itself be a mirror of a larger federation)."""
        view = self._merged_view()
        if view.complete:
            return view.union  # already an immutable frozenset
        return frozenset(self._union_hashes())

    def all_specs(self) -> List[Spec]:
        """Union of every mirror's reusable specs, de-duplicated by
        ``dag_hash`` — the first mirror indexing a hash provides its
        document (so a local override shadows the public copy)."""
        specs: List[Spec] = []
        with trace.span(
            "buildcache.mirror_all_specs", mirrors=len(self.mirrors)
        ) as sp:
            view = self._merged_view()
            remaining = self._union_hashes()
            for mirror, hashes in zip(self.mirrors, view.sets):
                if not remaining:
                    break
                if hashes is None:
                    try:
                        hashes = frozenset(
                            self._with_retries(mirror, lambda: set(mirror))
                        )
                    except BuildCacheError as e:
                        self._fallback(mirror, "all_specs", e)
                        continue
                serving = sorted(remaining & hashes)
                if not serving:
                    continue
                try:
                    mirror_specs = [
                        self._with_retries(
                            mirror, lambda h=h: mirror.materialize_spec(h)
                        )
                        for h in serving
                    ]
                except BuildCacheError as e:
                    self._fallback(mirror, "all_specs", e)
                    continue
                specs.extend(mirror_specs)
                remaining.difference_update(serving)
            sp.set(specs=len(specs))
        return specs

    def __len__(self) -> int:
        view = self._merged_view()
        if view.complete:
            return len(view.union)  # no O(n) copy on the warm path
        return len(self._union_hashes())

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._union_hashes()))

    # ------------------------------------------------------------------
    # verify / extract dispatch to the serving mirror
    # ------------------------------------------------------------------
    def _serving(self, payload: CachedPayload) -> BuildCache:
        """The mirror that produced ``payload`` (by its ``source``
        label), defaulting to the primary for foreign payloads."""
        if payload.source is not None:
            mirror = self._by_label.get(payload.source)
            if mirror is not None:
                return mirror
        return self.primary

    def verify_payload(self, payload: CachedPayload) -> CachedPayload:
        return self._serving(payload).verify_payload(payload)

    def extract_payload(
        self,
        payload: CachedPayload,
        prefix,
        extra_prefix_map: Optional[Dict[str, str]] = None,
    ):
        return self._serving(payload).extract_payload(
            payload, prefix, extra_prefix_map=extra_prefix_map
        )

    def extract(
        self,
        dag_hash: str,
        prefix,
        extra_prefix_map: Optional[Dict[str, str]] = None,
    ):
        payload = self.fetch(dag_hash)
        serving = self._serving(payload)
        if serving.trust is not None:
            self.verify_payload(payload)
        return self.extract_payload(
            payload, prefix, extra_prefix_map=extra_prefix_map
        )

    # ------------------------------------------------------------------
    # push-to-primary writes
    # ------------------------------------------------------------------
    def push(self, spec, prefix, dep_prefixes: Optional[Dict[str, str]] = None):
        """Writes always target the primary mirror; a read-only primary
        surfaces the backend's clear :class:`~repro.buildcache.backend.
        ReadOnlyBackendError`-derived message instead of a partial
        write further down.  The primary's state token moves with the
        push, so the merged view (and ``len(group)``) reflects it
        without any ``save_index``."""
        return self.primary.push(spec, prefix, dep_prefixes=dep_prefixes)

    def save_index(self) -> None:
        self.primary.save_index()

    @property
    def trust(self):
        """The primary's trust policy (duck-type parity with
        ``BuildCache``; per-payload verification dispatches to the
        serving mirror's own policy)."""
        return self.primary.trust

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"<MirrorGroup [{', '.join(m.label for m in self.mirrors)}] "
            f"retries={self.retries}>"
        )
