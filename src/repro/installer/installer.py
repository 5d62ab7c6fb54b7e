"""The installer: turn concrete specs into an installed software store.

For every node of a concretized DAG (dependencies first) the installer
picks one of five paths:

1. **already installed** — hash present in the database: skip;
2. **external** — register the vendor-provided prefix (e.g. cray-mpich);
3. **spliced** — the node carries a build spec (Section 4): install the
   build spec's binary (from the cache), then *rewire* it against the
   spliced dependencies (Section 4.2) — no compilation;
4. **cached** — payload in a buildcache: extract + relocate;
5. **source build** — simulate the build with :class:`Builder`.

The report distinguishes these paths so the benchmarks can count
"builds avoided by splicing".

Every install is one *wave* over the merged DAG of its roots: a node is
ready once all of its dependencies are installed, and ready nodes run
in the roots' post-order.  One worker, the default, runs each node
inline on the calling thread; ``jobs`` or ``fetch_jobs`` above 1 hands
the same ready queue to the thread pool in
:mod:`repro.installer.parallel`.  At every width a node that fails with
an :class:`InstallError` or a ``BuildCacheError`` skips only its
dependents, the database is saved once when the wave ends, and the wave
then raises one :class:`InstallError` naming every failure.
"""

from __future__ import annotations

import heapq
import logging
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..binary.abi import AbiReport, check_abi_compatibility
from ..binary.mockelf import MockBinary, BinaryFormatError
from ..binary.rewire import plan_rewire, rewire_binary, RewireError
from ..buildcache.backend import BuildCacheError, MissingBlobError
from ..buildcache.cache import BuildCache, CachedPayload
from ..obs import metrics, trace
from ..package.repository import Repository
from ..spec import Spec, DEPTYPE_LINK_RUN
from .builder import Builder, BuildError, prefix_name
from .database import Database

__all__ = ["Installer", "InstallReport", "InstallError"]

logger = logging.getLogger(__name__)


class InstallError(RuntimeError):
    """Raised when a spec cannot be installed by any path."""


@dataclass
class InstallReport:
    """What the installer did, per path."""

    installed: List[Spec] = field(default_factory=list)
    built: List[str] = field(default_factory=list)
    extracted: List[str] = field(default_factory=list)
    rewired: List[str] = field(default_factory=list)
    externals: List[str] = field(default_factory=list)
    already: List[str] = field(default_factory=list)
    simulated_build_time: float = 0.0

    def summary(self) -> str:
        return (
            f"built={len(self.built)} extracted={len(self.extracted)} "
            f"rewired={len(self.rewired)} external={len(self.externals)} "
            f"cached-locally={len(self.already)}"
        )


class _Wave:
    """The merged DAG of one install request and its bookkeeping.

    Nodes are numbered in the roots' post-order, deduplicated by hash.
    ``ready`` is a heap of the nodes whose dependencies are all
    installed, so one worker installs them in exactly that order.  A
    failed node never releases its dependents: they stay waiting and
    are reported as skipped.  ``lock`` guards the database, the report's
    ``installed``, ``already`` and ``externals`` lists and the worker
    counters.
    """

    def __init__(self, specs: Sequence[Spec]):
        index: Dict[str, int] = {}
        self.nodes: List[Spec] = []
        for spec in specs:
            for node in spec.traverse(order="post"):
                h = node.dag_hash()
                if h not in index:
                    index[h] = len(self.nodes)
                    self.nodes.append(node)
        self.explicit = {index[spec.dag_hash()] for spec in specs}
        self.dependents: List[List[int]] = [[] for _ in self.nodes]
        self.waiting: List[int] = []
        for i, node in enumerate(self.nodes):
            deps = {index[e.spec.dag_hash()] for e in node.edges()}
            self.waiting.append(len(deps))
            for dep in deps:
                self.dependents[dep].append(i)
        self.ready = [i for i, count in enumerate(self.waiting) if not count]
        self.failed: Dict[int, Exception] = {}
        self.report = InstallReport()
        self.lock = threading.Lock()
        self.running = 0
        self.peak = 0

    def pop(self) -> int:
        return heapq.heappop(self.ready)

    def finish(self, i: int, error: Optional[Exception]) -> None:
        """Record node ``i``'s outcome; a success releases its dependents."""
        if error is not None:
            self.failed[i] = error
            return
        for dependent in self.dependents[i]:
            self.waiting[dependent] -= 1
            if not self.waiting[dependent]:
                heapq.heappush(self.ready, dependent)

    def error(self) -> InstallError:
        failures = "; ".join(
            f"{self.nodes[i].name}: {e}" for i, e in self.failed.items()
        )
        message = f"install failed for {failures}"
        skipped = sorted(
            {self.nodes[i].name for i, count in enumerate(self.waiting) if count}
        )
        if skipped:
            message += f" (skipped dependents: {skipped})"
        return InstallError(message)


class Installer:
    """Installs concrete specs into a store directory."""

    def __init__(
        self,
        store_root: Path,
        repo: Repository,
        caches: Sequence[BuildCache] = (),
        verify_abi: bool = True,
        fetch_jobs: int = 1,
    ):
        self.store_root = Path(store_root)
        self.repo = repo
        self.caches = list(caches)
        self.verify_abi = verify_abi
        #: workers for the pipelined cache fetch/verify stage (the
        #: ``--fetch-jobs`` knob); >1 also widens the wave to at least
        #: as many workers so independent extracts overlap
        self.fetch_jobs = max(int(fetch_jobs), 1)
        self.database = Database(self.store_root)
        self.builder = Builder(repo)
        #: active PayloadPrefetcher during a pipelined wave (else None)
        self._prefetcher = None

    # ------------------------------------------------------------------
    def prefix_for(self, spec: Spec) -> Path:
        return self.store_root / prefix_name(spec)

    def _dep_prefix(self, spec: Spec) -> str:
        return self.database.prefix_of(spec)

    # ------------------------------------------------------------------
    def install(self, spec: Spec, jobs: int = 1) -> InstallReport:
        """Install a concrete spec and its dependencies (deps first)."""
        return self.install_all([spec], jobs)

    def install_all(self, specs: Sequence[Spec], jobs: int = 1) -> InstallReport:
        """Install the merged DAG of ``specs`` in one wave.

        ``jobs > 1`` installs independent DAG nodes concurrently (the
        ``spack install -j`` analogue).  An installer constructed with
        ``fetch_jobs > 1`` pipelines the binary hot path: blob fetch +
        signature verify of cache hits run on their own bounded pool
        while extraction stays DAG-ordered in a wave at least
        ``fetch_jobs`` workers wide.
        """
        for spec in specs:
            if not spec.concrete:
                raise InstallError(f"cannot install abstract spec {spec}")
        wave = _Wave(specs)
        width = max(jobs, self.fetch_jobs)
        try:
            with trace.span(
                "install.run", roots=len(specs), nodes=len(wave.nodes),
                jobs=width, fetch_jobs=self.fetch_jobs,
            ) as span:
                if width == 1:
                    while wave.ready:
                        i = wave.pop()
                        wave.finish(i, self._install_node(wave, i))
                else:
                    from .parallel import run_pool

                    run_pool(self, wave, width)
                span.set(
                    installed=len(wave.report.installed),
                    failed=len(wave.failed), max_concurrency=wave.peak,
                )
        finally:
            self.database.save()
        metrics.gauge("install.max_concurrency").max(wave.peak)
        if wave.failed:
            raise wave.error() from next(iter(wave.failed.values()))
        report = wave.report
        report.simulated_build_time = self.builder.simulated_build_time
        logger.info("installed %d root(s): %s", len(specs), report.summary())
        return report

    # ------------------------------------------------------------------
    def _install_node(self, wave: _Wave, i: int) -> Optional[Exception]:
        """Install node ``i`` of ``wave``; its dependencies are installed.

        Every database write of an install happens here, under the
        wave's lock; the slow work (build / extract / rewire) runs
        outside it.  Returns the node's install failure, or ``None``.
        Any other exception is a bug and propagates unchanged.
        """
        node, report, lock = wave.nodes[i], wave.report, wave.lock
        explicit = i in wave.explicit
        with lock:
            wave.running += 1
            wave.peak = max(wave.peak, wave.running)
            occupancy = wave.running
        # worker-occupancy histogram: how many workers were busy when
        # each node started (p50 near `jobs` means the pool is saturated)
        metrics.observe("install.worker_occupancy", occupancy)
        try:
            with lock:
                if self.database.get(node.dag_hash()) is not None:
                    report.already.append(node.name)
                    if explicit:
                        self.database.add(node, self.database.prefix_of(node), True)
                    return None
                if node.external:
                    if not node.external_prefix:
                        raise InstallError(f"external {node.name} has no prefix")
                    self.database.add(node, node.external_prefix, explicit)
                    report.externals.append(node.name)
                    report.installed.append(node)
                    return None
            prefix = self.prefix_for(node)
            if node.spliced:
                self._install_spliced(node, prefix, report)
            elif not self._try_extract(node, prefix, report):
                self._build(node, prefix, report)
            with lock:
                self.database.add(node, str(prefix), explicit)
                report.installed.append(node)
            return None
        except (InstallError, BuildCacheError) as e:
            logger.info("install of %s failed: %s", node.name, e)
            return e
        finally:
            with lock:
                wave.running -= 1

    def _dep_prefix_map(self, meta: dict) -> Dict[str, str]:
        """Build-machine dependency prefixes -> local store prefixes.

        Dependency references in a cached binary point at the build
        machine's prefixes; extraction rewrites them to the consumer's.
        """
        prefix_map: Dict[str, str] = {}
        for dep_hash, old_prefix in meta.get("dep_prefixes", {}).items():
            record = self.database.get(dep_hash)
            if record is not None and old_prefix:
                prefix_map[old_prefix] = record.prefix
        return prefix_map

    def _fetch(self, dag_hash: str) -> Optional[Tuple[BuildCache, CachedPayload]]:
        """The first cache's entry for ``dag_hash`` with the cache that
        served it, or ``None``.  One fetch per cache that indexes the
        hash; an indexed hash whose bundle is gone is a miss there."""
        for cache in self.caches:
            if dag_hash not in cache:
                continue
            try:
                return cache, cache.fetch(dag_hash)
            except MissingBlobError:
                continue
        return None

    def _try_extract(self, node: Spec, prefix: Path, report: InstallReport) -> bool:
        h = node.dag_hash()
        prefetcher = self._prefetcher
        if prefetcher is not None and h in prefetcher:
            # fetch + verify already happened on the fetch pool; only
            # relocation + writing remains on this worker
            found = prefetcher.take(h)
        else:
            found = self._fetch(h)
        if found is None:
            if self.caches:
                metrics.inc("buildcache.misses")
            return False
        cache, payload = found
        metrics.inc("buildcache.hits")
        with trace.span("install.extract", name=node.name):
            cache.extract_payload(
                payload, prefix,
                extra_prefix_map=self._dep_prefix_map(payload.meta),
            )
        report.extracted.append(node.name)
        logger.debug("extracted %s/%s from %s", node.name, h[:7], payload.source)
        return True

    def push_to_cache(self, cache: BuildCache, spec: Spec) -> None:
        """Push an installed spec DAG (deps included) to a buildcache,
        recording build-machine prefixes for later relocation."""
        for node in spec.traverse(order="post"):
            if node.external:
                continue
            dep_prefixes = {
                d.spec.dag_hash(): self.database.prefix_of(d.spec)
                for d in node.edges(DEPTYPE_LINK_RUN)
            }
            cache.push(
                node,
                Path(self.database.prefix_of(node)),
                dep_prefixes=dep_prefixes,
            )
        cache.save_index()

    def _build(self, node: Spec, prefix: Path, report: InstallReport) -> None:
        try:
            with trace.span("install.build", name=node.name):
                self.builder.build(node, prefix, self._dep_prefix)
        except BuildError as e:
            raise InstallError(str(e)) from e
        report.built.append(node.name)
        logger.debug("built %s from source", node.name)

    # ------------------------------------------------------------------
    def _install_spliced(self, node: Spec, prefix: Path, report: InstallReport) -> None:
        """Install a spliced spec: fetch its build spec's binaries and
        rewire them against the spliced dependencies."""
        try:
            with trace.span("install.rewire", name=node.name):
                self._install_spliced_inner(node, prefix, report)
        except RewireError as e:
            raise InstallError(str(e)) from e
        logger.debug("rewired %s (spliced, no rebuild)", node.name)

    def _install_spliced_inner(
        self, node: Spec, prefix: Path, report: InstallReport
    ) -> None:
        source_prefix, old_prefixes = self._locate_build_spec(node)

        def old_prefix_of(dep: Spec) -> str:
            recorded = old_prefixes.get(dep.dag_hash())
            if recorded:
                return recorded
            record = self.database.get(dep.dag_hash())
            if record is not None:
                return record.prefix
            if dep.external and dep.external_prefix:
                return dep.external_prefix
            raise InstallError(
                f"cannot determine the original prefix of {dep.name} "
                f"(build spec dependency of {node.name})"
            )

        plan = plan_rewire(node, self._dep_prefix, old_prefix_of=old_prefix_of)

        prefix.mkdir(parents=True, exist_ok=True)
        checker = self._abi_checker() if self.verify_abi else None
        for source in sorted(Path(source_prefix).rglob("*")):
            if not source.is_file():
                continue
            rel = source.relative_to(source_prefix)
            target = prefix / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            data = source.read_bytes()
            try:
                binary = MockBinary.from_bytes(data)
            except BinaryFormatError:
                target.write_bytes(data)
                continue
            # first relocate build-prefix references, then rewire deps
            from ..binary.relocate import relocate_binary

            binary = relocate_binary(
                binary, {str(source_prefix): str(prefix)}
            ).binary
            patched = rewire_binary(binary, plan, check_abi=checker)
            patched.write(target)
        self._discard_staging(Path(source_prefix))
        report.rewired.append(node.name)

    def _discard_staging(self, source_prefix: Path) -> None:
        """Drop a staged build-spec extraction once its rewire succeeded.

        Leftover ``.staging`` trees read as interrupted installs to a
        store audit (STORE002); only failed rewires should leave one.
        """
        import shutil

        staging_root = self.store_root / ".staging"
        if staging_root not in source_prefix.parents:
            return
        shutil.rmtree(source_prefix, ignore_errors=True)
        try:
            staging_root.rmdir()
        except OSError:
            pass  # other extractions still staged

    # ------------------------------------------------------------------
    # uninstall and garbage collection
    # ------------------------------------------------------------------
    def uninstall(self, spec: Spec, force: bool = False) -> None:
        """Remove an installed spec (prefix + database record).

        Refuses when other installed specs still depend on it, unless
        ``force`` — the dependents would be left with dangling RPATHs.
        """
        h = spec.dag_hash()
        record = self.database.get(h)
        if record is None:
            raise InstallError(f"{spec.name}/{h[:7]} is not installed")
        if not force:
            dependents = [
                r.spec.name
                for r in self.database.query()
                if r.spec.dag_hash() != h
                and any(
                    e.spec.dag_hash() == h for e in r.spec.edges()
                )
            ]
            if dependents:
                raise InstallError(
                    f"cannot uninstall {spec.name}: required by "
                    f"{', '.join(sorted(dependents))} (use force=True)"
                )
        import shutil

        if not record.spec.external:
            shutil.rmtree(record.prefix, ignore_errors=True)
        self.database.remove(h)
        self.database.save()

    def gc(self) -> List[str]:
        """Garbage-collect: remove every installed spec not reachable
        from an explicitly-installed root (``spack gc``).  Returns the
        names of removed specs, dependents-first."""
        keep: set = set()
        for record in self.database.query():
            if record.explicit:
                for node in record.spec.traverse():
                    keep.add(node.dag_hash())
        # also keep build specs of spliced installs: their binaries may
        # be referenced by staging or future rewires? No — build specs
        # are provenance, not installs; only installed hashes matter.
        doomed = [
            r.spec for r in self.database.query() if r.spec.dag_hash() not in keep
        ]
        # remove dependents before dependencies
        removed: List[str] = []
        remaining = {s.dag_hash() for s in doomed}
        while remaining:
            progressed = False
            for spec in list(doomed):
                h = spec.dag_hash()
                if h not in remaining:
                    continue
                has_remaining_dependent = any(
                    other.dag_hash() in remaining
                    and any(e.spec.dag_hash() == h for e in other.edges())
                    for other in doomed
                )
                if not has_remaining_dependent:
                    self.uninstall(spec, force=True)
                    removed.append(spec.name)
                    remaining.discard(h)
                    progressed = True
            if not progressed:  # cycle cannot happen, but never hang
                for spec in doomed:
                    if spec.dag_hash() in remaining:
                        self.uninstall(spec, force=True)
                        removed.append(spec.name)
                        remaining.discard(spec.dag_hash())
        return removed

    def verify(self) -> Dict[str, List[str]]:
        """Integrity-check the store: every installed binary must load
        (NEEDED resolution, symbols, layouts).  Returns {name: problems}
        for broken installs — empty dict means a healthy store."""
        from ..binary.loader import Loader
        from ..binary.mockelf import BinaryFormatError, MockBinary

        loader = Loader()
        problems: Dict[str, List[str]] = {}
        for record in self.database.query():
            if record.spec.external:
                continue
            prefix = Path(record.prefix)
            issues: List[str] = []
            if not prefix.is_dir():
                issues.append("install prefix missing")
            else:
                for path in sorted(prefix.rglob("*")):
                    if not path.is_file():
                        continue
                    try:
                        MockBinary.read(path)
                    except (BinaryFormatError, OSError):
                        continue
                    result = loader.load(str(path))
                    if not result.ok:
                        issues.append(f"{path.name}: {result.explain()}")
            if issues:
                problems[record.spec.name] = issues
        return problems

    def _abi_checker(self) -> Callable[[Spec, Spec], AbiReport]:
        def check(old: Spec, new: Spec) -> AbiReport:
            old_cls = self.repo.get(old.name)
            new_cls = self.repo.get(new.name)
            old_bin = MockBinary(
                soname=f"lib{old.name}.so",
                defined_symbols=list(old_cls.exported_symbols(old)),
                type_layouts=dict(old_cls.exported_type_layouts(old)),
            )
            new_bin = MockBinary(
                soname=f"lib{new.name}.so",
                defined_symbols=list(new_cls.exported_symbols(new)),
                type_layouts=dict(new_cls.exported_type_layouts(new)),
            )
            return check_abi_compatibility(new_bin, old_bin)

        return check

    def _locate_build_spec(self, node: Spec) -> tuple:
        """Find binaries for the spliced ``node``'s build spec: installed
        locally, else in a cache (staged without relocation, so its
        references still point at the recorded build-machine prefixes).
        The staging tree is named after ``node``, not the build spec:
        splices of one binary rewired at once each read their own copy,
        and discarding one never removes another's.

        Returns ``(source_prefix, old_dep_prefixes)`` where the mapping
        gives each dependency's location at build time (by hash).
        """
        build_spec = node.build_spec
        record = self.database.get(build_spec.dag_hash())
        if record is not None:
            return Path(record.prefix), {}
        h = build_spec.dag_hash()
        found = self._fetch(h)
        if found is None:
            raise InstallError(
                f"no binary for build spec {build_spec.name}/{h[:7]}: splicing "
                "requires the original binary to relink"
            )
        cache, payload = found
        staging = self.store_root / ".staging" / prefix_name(node)
        if not staging.exists():
            cache.extract_payload(payload, staging)
        return staging, dict(payload.meta.get("dep_prefixes", {}))
