"""Parallel installation: build independent DAG nodes concurrently.

The analogue of ``spack install -jN``: nodes of the (merged) dependency
DAG are installed as soon as every dependency is in the database, with
up to ``jobs`` simultaneous workers.  Correctness invariants:

* a node never starts before all of its link-run AND build dependencies
  finished (they may come from different roots' DAGs — dedup by hash);
* the install database is only touched under a lock;
* a failed node poisons its transitive dependents (they are skipped and
  reported), but independent subtrees keep going — one broken package
  does not abort the whole wave, matching Spack's ``--keep-going``
  behaviour.

The module also hosts :class:`PayloadPrefetcher`, the fetch half of the
pipelined binary-install hot path (``--fetch-jobs``): blob fetch +
signature verify of every cache-hit node starts immediately on its own
bounded pool — those stages have no DAG-ordering requirement — while
extraction (which needs dependency prefixes from the database) stays
DAG-ordered in the install workers.  Fetching node B thus overlaps
extracting node A even when B depends on A.
"""

from __future__ import annotations

import logging
import threading
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..obs import metrics, trace
from ..spec import Spec

__all__ = ["ParallelPlan", "PayloadPrefetcher", "run_parallel_install"]

logger = logging.getLogger(__name__)


class PayloadPrefetcher:
    """Bounded-pool prefetch of cache payloads (fetch + verify stages).

    For every wave node that a cache indexes and that is not already in
    the install database (nor external or spliced), a fetch task reads
    its entry into memory with the installer's one-fetch-per-node
    lookup and, when the cache carries a trust policy, verifies the
    signed manifest over those bytes.  The DAG-ordered install worker
    later collects the result with :meth:`take` and only pays
    relocation + writing, so the request count matches the serial path.

    Observability: each task runs under an ``installer.fetch`` span, and
    the ``installer.fetch_occupancy`` histogram samples how many fetch
    workers were busy at each task start — its max exceeding 1 is the
    proof that stages overlapped.
    """

    def __init__(self, installer, nodes: Dict[str, Spec], fetch_jobs: int):
        self._lock = threading.Lock()
        self._busy = 0
        self._futures: Dict[str, Future] = {}
        self._pool = ThreadPoolExecutor(
            max_workers=max(fetch_jobs, 1), thread_name_prefix="fetch"
        )
        for h, node in nodes.items():
            if installer.database.get(h) is not None or node.external or (
                node.spliced
            ):
                continue
            if any(h in cache for cache in installer.caches):
                self._futures[h] = self._pool.submit(
                    self._fetch_one, installer, node, h
                )

    def _fetch_one(self, installer, node: Spec, h: str):
        with self._lock:
            self._busy += 1
            occupancy = self._busy
        metrics.observe("installer.fetch_occupancy", occupancy)
        try:
            with trace.span("installer.fetch", name=node.name, hash=h[:7]) as sp:
                found = installer._fetch(h)
                if found is not None:
                    cache, payload = found
                    cache.verify_payload(payload)
                    # per-mirror attribution: which cache/mirror actually
                    # served the bytes (a MirrorGroup may have fallen back)
                    sp.set(bytes=payload.size, mirror=payload.source)
            return found
        finally:
            with self._lock:
                self._busy -= 1

    def __contains__(self, dag_hash: str) -> bool:
        return dag_hash in self._futures

    def take(self, dag_hash: str) -> Optional[Tuple[object, object]]:
        """The (cache, payload) pair of a prefetched node, or ``None``
        when no cache could serve it (a miss).

        Blocks until the in-flight fetch finishes; re-raises its error
        (a corrupt or tampered entry must fail the node exactly as the
        serial path would).
        """
        return self._futures.pop(dag_hash).result()

    @property
    def prefetched(self) -> int:
        return len(self._futures)

    def close(self) -> None:
        for future in self._futures.values():
            future.cancel()
        self._pool.shutdown(wait=False)
        self._futures.clear()


@dataclass
class ParallelPlan:
    """Outcome bookkeeping for one parallel install run."""

    installed: List[str] = field(default_factory=list)
    failed: Dict[str, str] = field(default_factory=dict)
    skipped: List[str] = field(default_factory=list)
    #: high-water mark of simultaneously running builds (observability)
    max_concurrency: int = 0


def run_parallel_install(
    installer, specs: Sequence[Spec], jobs: int, report=None,
    fetch_jobs: int = 1,
) -> ParallelPlan:
    """Install the merged DAG of ``specs`` with ``jobs`` workers.

    ``installer`` is a :class:`~repro.installer.installer.Installer`;
    its per-node entry point is invoked under a scheduler that releases
    a node once all its dependencies are installed.  Per-path counters
    accumulate into ``report`` when given.  With ``fetch_jobs > 1`` a
    :class:`PayloadPrefetcher` overlaps blob fetch + verify of cache
    hits with the DAG-ordered extraction; database writes stay
    serialized under the scheduler lock either way.
    """
    # ---- build the hash-level DAG (merged across roots) ---------------
    nodes: Dict[str, Spec] = {}
    dependents: Dict[str, Set[str]] = {}
    remaining: Dict[str, int] = {}
    explicit: Set[str] = set()
    for spec in specs:
        explicit.add(spec.dag_hash())
        for node in spec.traverse():
            h = node.dag_hash()
            if h in nodes:
                continue
            nodes[h] = node
            deps = {e.spec.dag_hash() for e in node.edges()}
            remaining[h] = len(deps)
            for dep in deps:
                dependents.setdefault(dep, set()).add(h)
    # dedupe edge counts for nodes discovered after their dependents
    for h, node in nodes.items():
        remaining[h] = len({e.spec.dag_hash() for e in node.edges()})

    plan = ParallelPlan()
    lock = threading.Lock()
    running = 0
    poisoned: Set[str] = set()

    if report is None:
        from .installer import InstallReport

        report = InstallReport()

    def ready_nodes() -> List[str]:
        return [
            h
            for h, count in remaining.items()
            if count == 0 and h not in poisoned
        ]

    def install_one(h: str) -> Optional[str]:
        nonlocal running
        node = nodes[h]
        with lock:
            running += 1
            plan.max_concurrency = max(plan.max_concurrency, running)
            occupancy = running
        # worker-occupancy histogram: how many workers were busy when
        # each node started (p50 near `jobs` means the pool is saturated)
        metrics.observe("install.worker_occupancy", occupancy)
        try:
            # the installer's node path is not thread-safe around the
            # database; serialize the DB check/update, run the build
            # (the slow part) outside the lock via the two-phase helper
            installer._install_node_locked(node, h in explicit, report, lock)
            return None
        except Exception as exc:  # noqa: BLE001 — reported, not raised
            return f"{type(exc).__name__}: {exc}"
        finally:
            with lock:
                running -= 1

    prefetcher: Optional[PayloadPrefetcher] = None
    if fetch_jobs > 1 and installer.caches:
        prefetcher = PayloadPrefetcher(installer, nodes, fetch_jobs)
        installer._prefetcher = prefetcher
    try:
        with trace.span(
            "install.parallel", jobs=jobs, nodes=len(nodes),
            fetch_jobs=fetch_jobs,
        ) as parallel_span:
            with ThreadPoolExecutor(max_workers=max(jobs, 1)) as pool:
                futures = {}
                submitted: Set[str] = set()

                def submit_ready() -> None:
                    for h in ready_nodes():
                        if h not in submitted:
                            submitted.add(h)
                            futures[pool.submit(install_one, h)] = h

                submit_ready()
                while futures:
                    done, _ = wait(futures, return_when=FIRST_COMPLETED)
                    for future in done:
                        h = futures.pop(future)
                        remaining.pop(h, None)
                        error = future.result()
                        node = nodes[h]
                        if error is None:
                            plan.installed.append(node.name)
                            for dep in dependents.get(h, ()):  # release dependents
                                if dep in remaining:
                                    remaining[dep] -= 1
                        else:
                            plan.failed[node.name] = error
                            logger.warning(
                                "install of %s failed: %s", node.name, error
                            )
                            _poison(h, dependents, poisoned)
                    submit_ready()
            parallel_span.set(
                installed=len(plan.installed),
                failed=len(plan.failed),
                max_concurrency=plan.max_concurrency,
            )
    finally:
        if prefetcher is not None:
            installer._prefetcher = None
            prefetcher.close()
    metrics.gauge("install.max_concurrency").max(plan.max_concurrency)
    metrics.inc("install.parallel_nodes", len(plan.installed))
    logger.info(
        "parallel install: %d node(s) with %d job(s), peak concurrency %d",
        len(plan.installed), jobs, plan.max_concurrency,
    )

    for h in poisoned:
        if h in nodes and nodes[h].name not in plan.failed:
            plan.skipped.append(nodes[h].name)
            remaining.pop(h, None)
    with lock:
        installer.database.save()
    return plan


def _poison(h: str, dependents: Dict[str, Set[str]], poisoned: Set[str]) -> None:
    stack = list(dependents.get(h, ()))
    while stack:
        current = stack.pop()
        if current in poisoned:
            continue
        poisoned.add(current)
        stack.extend(dependents.get(current, ()))
