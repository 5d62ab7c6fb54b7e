"""The worker pool of an install wave wider than one worker.

:meth:`~repro.installer.installer.Installer.install_all` runs one wave
over the merged DAG of its roots.  With ``jobs`` or ``fetch_jobs`` above
1 it hands the wave to :func:`run_pool`, which installs each node on a
worker thread as soon as all of its dependencies are in the database
(the analogue of ``spack install -jN``).  The ready queue, the node
function, the failure rule and the database commit are the installer's,
the same at every width; this module adds only the threads.

The module also hosts :class:`PayloadPrefetcher`, the fetch half of the
pipelined binary-install hot path (``--fetch-jobs``): blob fetch +
signature verify of every cache-hit node starts immediately on its own
bounded pool — those stages have no DAG-ordering requirement — while
extraction (which needs dependency prefixes from the database) stays
DAG-ordered in the install workers.  Fetching node B thus overlaps
extracting node A even when B depends on A.
"""

from __future__ import annotations

import threading
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from typing import Dict, Iterable, Optional, Tuple

from ..obs import metrics, trace
from ..spec import Spec

__all__ = ["PayloadPrefetcher", "run_pool"]


class PayloadPrefetcher:
    """Bounded-pool prefetch of cache payloads (fetch + verify stages).

    For every wave node that a cache indexes and that is not already in
    the install database (nor external or spliced), a fetch task reads
    its entry into memory with the installer's one-fetch-per-node
    lookup and, when the cache carries a trust policy, verifies the
    signed manifest over those bytes.  The DAG-ordered install worker
    later collects the result with :meth:`take` and only pays
    relocation + writing, so the request count matches one worker's.

    Observability: each task runs under an ``installer.fetch`` span, and
    the ``installer.fetch_occupancy`` histogram samples how many fetch
    workers were busy at each task start — its max exceeding 1 is the
    proof that stages overlapped.
    """

    def __init__(self, installer, nodes: Iterable[Spec], fetch_jobs: int):
        self._lock = threading.Lock()
        self._busy = 0
        self._futures: Dict[str, Future] = {}
        self._pool = ThreadPoolExecutor(
            max_workers=max(fetch_jobs, 1), thread_name_prefix="fetch"
        )
        for node in nodes:
            h = node.dag_hash()
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
        (a corrupt or tampered entry must fail the node exactly as an
        unprefetched fetch would).
        """
        return self._futures.pop(dag_hash).result()

    def close(self) -> None:
        for future in self._futures.values():
            future.cancel()
        self._pool.shutdown(wait=False)
        self._futures.clear()


def run_pool(installer, wave, width: int) -> None:
    """Install every node of ``wave`` on ``width`` worker threads.

    ``installer`` is a :class:`~repro.installer.installer.Installer` and
    ``wave`` its merged DAG.  Ready nodes are submitted as they become
    ready and each outcome is recorded on the calling thread, so the
    ready queue needs no lock.  With ``fetch_jobs > 1`` a
    :class:`PayloadPrefetcher` overlaps blob fetch + verify of cache hits
    with the DAG-ordered extraction.  An exception that is not an
    install failure cancels the queued nodes and propagates once the
    running ones finish.
    """
    prefetcher: Optional[PayloadPrefetcher] = None
    if installer.fetch_jobs > 1 and installer.caches:
        prefetcher = PayloadPrefetcher(installer, wave.nodes, installer.fetch_jobs)
        installer._prefetcher = prefetcher
    pool = ThreadPoolExecutor(max_workers=width)
    try:
        futures: Dict[Future, int] = {}
        while True:
            while wave.ready:
                i = wave.pop()
                futures[pool.submit(installer._install_node, wave, i)] = i
            if not futures:
                break
            done, _ = wait(futures, return_when=FIRST_COMPLETED)
            for future in done:
                wave.finish(futures.pop(future), future.result())
    finally:
        pool.shutdown(cancel_futures=True)
        if prefetcher is not None:
            installer._prefetcher = None
            prefetcher.close()
