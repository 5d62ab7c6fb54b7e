"""The concretizer façade: solve abstract specs into concrete ones.

Configuration axes mirror the paper's experiments (Section 6.1.4):

* ``encoding`` — ``"old"`` (direct ``imposed_constraint`` facts) or
  ``"new"`` (``hash_attr`` indirection, Figure 3);
* ``splicing`` — load Figure 4's rules (requires the new encoding);
* the set of reusable specs (a buildcache and/or an install DB).
"""

from __future__ import annotations

import gc
import logging
import os
from contextlib import contextmanager
from pathlib import Path
from typing import (
    TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

from ..asp.api import Control, Model
from ..asp.parser import parse_program
from ..asp.syntax import Atom, Program, String
from ..obs import metrics, trace
from ..package.repository import Repository
from ..spec import DEPTYPE_LINK_RUN, Spec, parse_one
from . import ENV_CACHE_DIR
from .cansplice import CanSpliceCompiler
from .encode import Encoder, EncodingError, node_term
from .extract import ModelExtractor
from .possible import possible_dependencies
from .reuse import ReuseEncoder, NEW_ENCODING, OLD_ENCODING

if TYPE_CHECKING:
    from .groundcache import GroundProgramCache

__all__ = [
    "Concretizer",
    "ConcretizationResult",
    "BatchConcretizationResult",
    "UnsatisfiableError",
]

logger = logging.getLogger(__name__)

LOGIC_DIR = Path(__file__).parent / "logic"

_logic_cache: Dict[str, Program] = {}


def _load_logic(name: str) -> Program:
    """Parse a logic program once per process."""
    program = _logic_cache.get(name)
    if program is None:
        program = parse_program((LOGIC_DIR / name).read_text(encoding="utf-8"))
        _logic_cache[name] = program
    return program


class UnsatisfiableError(RuntimeError):
    """No concretization satisfies the request."""


@contextmanager
def _cyclic_gc_paused():
    """Pause the cyclic garbage collector for one concretization.

    A solve allocates tens of thousands of objects that live until it
    returns (atoms, ground rules, clauses) and leaves only a few thousand
    in reference cycles, so each collection it triggers scans the
    caller's whole heap for almost nothing.  With the test suite's heap
    one generation-2 collection took ~0.09 s on a 2-vCPU VM, more than a
    pruned solve.  The cycles are collected once the collector resumes.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class ConcretizationResult:
    """Concrete specs plus provenance/metrics for one solve."""

    def __init__(
        self,
        roots: List[Spec],
        by_name: Dict[str, Spec],
        model: Model,
        stats: Dict[str, float],
    ):
        self.roots = roots
        self.by_name = by_name
        self.model = model
        self.stats = stats

    @property
    def specs(self) -> List[Spec]:
        return self.roots

    @property
    def reused(self) -> List[Spec]:
        """Specs reused from the cache/DB (unspliced)."""
        return [
            s for s in self.by_name.values() if not s.spliced and self._has_hash(s)
        ]

    @property
    def spliced(self) -> List[Spec]:
        """Specs whose binaries will be rewired rather than rebuilt."""
        return [s for s in self.by_name.values() if s.spliced]

    @property
    def built(self) -> List[Spec]:
        """Specs that must be built from source."""
        built_names = {
            str(a.args[0].value) for a in self.model.by_predicate("build")
        }
        return [s for name, s in self.by_name.items() if name in built_names]

    def _has_hash(self, spec: Spec) -> bool:
        for atom in self.model.by_predicate("attr"):
            if (
                getattr(atom.args[0], "value", None) == "hash"
                and atom.args[1].args[0].value == spec.name
            ):
                return True
        return False

    @property
    def solve_time(self) -> float:
        return self.stats.get("total_time", 0.0)

    def __repr__(self):
        return (
            f"<ConcretizationResult roots={[s.name for s in self.roots]} "
            f"built={len(self.built)} spliced={len(self.spliced)}>"
        )


class BatchConcretizationResult(ConcretizationResult):
    """One joint solve over many roots, viewable per root.

    All roots share one stable model, so common dependencies *unify*
    (one node per package across the whole environment).  Per-root views
    restrict ``by_name`` to the root's own DAG closure; their
    ``built``/``reused``/``spliced`` breakdowns therefore count only
    nodes reachable from that root.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._per_root: Optional[List[ConcretizationResult]] = None

    def for_root(self, root: Spec) -> ConcretizationResult:
        """The solve restricted to one concrete root's closure."""
        closure = {node.name: node for node in root.traverse()}
        return ConcretizationResult([root], closure, self.model, self.stats)

    @property
    def per_root(self) -> List[ConcretizationResult]:
        if self._per_root is None:
            self._per_root = [self.for_root(root) for root in self.roots]
        return self._per_root

    def __iter__(self):
        return iter(self.per_root)


class Concretizer:
    """Dependency resolver over a repository and a set of reusable specs."""

    def __init__(
        self,
        repo: Repository,
        reusable_specs: Iterable[Spec] = (),
        encoding: str = NEW_ENCODING,
        splicing: bool = False,
        default_os: str = "centos8",
        default_target: str = "skylake",
        ground_cache: Optional[GroundProgramCache] = None,
        reuse_digest: Optional[str] = None,
    ):
        if splicing and encoding != NEW_ENCODING:
            raise ValueError(
                "splicing requires the new (hash_attr) reuse encoding"
            )
        self.repo = repo
        self.encoding = encoding
        self.splicing = splicing
        self.default_os = default_os
        self.default_target = default_target
        self.reusable_specs: List[Spec] = list(reusable_specs)
        #: hash → concrete node (every node of every reusable DAG)
        self._by_hash: Dict[str, Spec] = {}
        for spec in self.reusable_specs:
            for node in spec.traverse():
                self._by_hash.setdefault(node.dag_hash(), node)
        #: package name → link-run children of its cached nodes (the
        #: edges a reused node imposes, followed by the closure)
        self._cached_children: Dict[str, List[str]] = {}
        for node in self._by_hash.values():
            self._cached_children.setdefault(node.name, []).extend(
                edge.spec.name for edge in node.edges(DEPTYPE_LINK_RUN)
            )
        if ground_cache is None and os.environ.get(ENV_CACHE_DIR):
            from .groundcache import default_cache

            ground_cache = default_cache()
        #: exact-key ground-program cache; default resolves from the
        #: environment (REPRO_GROUND_CACHE_DIR) and is OFF otherwise —
        #: fresh-solve timings must stay honest
        self.ground_cache = ground_cache
        #: caller-provided O(1) reuse-set digest (e.g. a buildcache
        #: index's content_digest()); falls back to hashing _by_hash keys
        self._reuse_digest = reuse_digest

    # ------------------------------------------------------------------
    def lookup(self, hash_: str) -> Spec:
        return self._by_hash[hash_]

    def _hash_requests(self, roots: Sequence[Spec]) -> List[Tuple[str, str]]:
        """Resolve ``name/abc123`` hash-prefix requests against the
        reusable-spec set: one ``(package name, full hash)`` per request."""
        resolved: List[Tuple[str, str]] = []
        for root in roots:
            for node in root.traverse():
                prefix = node.abstract_hash
                if prefix is None:
                    continue
                matches = sorted(
                    h
                    for h, spec in self._by_hash.items()
                    if h.startswith(prefix)
                    and (node.name is None or spec.name == node.name)
                )
                if not matches:
                    raise UnsatisfiableError(
                        f"no installed spec matches {node.name or ''}/{prefix}"
                    )
                if len(matches) > 1:
                    raise UnsatisfiableError(
                        f"hash prefix /{prefix} is ambiguous: "
                        f"{', '.join(m[:10] for m in matches)}"
                    )
                name = node.name or self._by_hash[matches[0]].name
                resolved.append((name, matches[0]))
        return resolved

    def explain(
        self,
        specs: Sequence[Union[str, Spec]],
        forbidden: Sequence[str] = (),
    ):
        """Diagnose why a request is unsatisfiable (see
        :func:`repro.concretize.explain.explain_unsat`)."""
        from .explain import explain_unsat

        return explain_unsat(self, specs, forbidden)

    # ------------------------------------------------------------------
    # reuse-set / cache-key helpers
    # ------------------------------------------------------------------
    def _logic_names(self) -> List[str]:
        names = ["concretize.lp"]
        if self.encoding == NEW_ENCODING:
            names.append("reuse_new.lp")
        if self.splicing:
            names.append("splice.lp")
        return names

    def _solve_key(self, roots: Sequence[Spec], forbidden: Sequence[str]) -> str:
        """The exact solve key the ground cache is addressed by.

        The repo digest is recomputed per solve — repositories mutate
        (replica injection, provider preferences) — but it folds cached
        per-package digests, so it is cheap.  The reuse digest is fixed
        per instance (the spec list is copied at construction).
        """
        from . import groundcache

        logic = groundcache.logic_digest(self._logic_names())
        repo = groundcache.repo_digest(self.repo)
        if self._reuse_digest is None:
            self._reuse_digest = groundcache.reuse_digest(self._by_hash)
        request = groundcache.request_digest(
            roots, forbidden, self.default_os, self.default_target,
            self.encoding, self.splicing,
        )
        return groundcache.cache_key(logic, repo, self._reuse_digest, request)

    # ------------------------------------------------------------------
    # grounding
    # ------------------------------------------------------------------
    def _prepare_control(
        self, roots: Sequence[Spec], forbidden: Sequence[str]
    ) -> Tuple[Control, int, float]:
        """Produce a ground, solvable :class:`Control` for the request.

        An exact ground-cache hit skips setup and grounding (neither
        span even opens); otherwise the classic path does full setup +
        ground and feeds the cache when one is enabled.

        Returns ``(control, reusable_nodes, setup_seconds)``.
        """
        key = None
        if self.ground_cache is not None:
            key = self._solve_key(roots, forbidden)
            entry = self.ground_cache.get(key)
            if entry is not None:
                logger.info("ground cache hit for %s", [str(r) for r in roots])
                control = Control()
                control.use_ground_program(entry.ground_program)
                return control, int(entry.meta.get("reusable_nodes", 0)), 0.0
        with trace.span("concretize.setup") as setup_span:
            control = Control()
            hashes = self._hash_requests(roots)
            possible = possible_dependencies(
                self.repo, roots, [name for name, _ in hashes],
                self._cached_children,
            )
            encoder = Encoder(self.repo)
            encoder.encode_repository(possible)
            encoder.encode_request(
                roots,
                forbidden=forbidden,
                default_os=self.default_os,
                default_target=self.default_target,
            )

            for name, hash_ in hashes:
                control.add_fact(
                    Atom("attr", (String("hash"), node_term(name), String(hash_)))
                )

            if self.splicing:
                compiler = CanSpliceCompiler(self.repo, encoder)
                for rule in compiler.compile_all(possible):
                    control.add_rule(rule)

            encoder.into_program(control.program)

            reuse = ReuseEncoder(self.encoding)
            for fact in reuse.encode_nodes(self._by_hash.values(), possible):
                control.add_fact(fact)

            for name in self._logic_names():
                control.program.extend(_load_logic(name))
            setup_span.set(reusable_nodes=reuse.node_count)

        control.ground()  # explicit, so the program can be cached pre-solve
        if key is not None:
            self.ground_cache.put(
                key,
                control._ground_program,
                {"reusable_nodes": reuse.node_count},
            )
        return control, reuse.node_count, setup_span.duration

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def solve(
        self,
        specs: Sequence[Union[str, Spec]],
        forbidden: Sequence[str] = (),
    ) -> ConcretizationResult:
        """Concretize the requested abstract specs jointly.

        Raises :class:`UnsatisfiableError` when no valid configuration
        exists (e.g. conflicting constraints, or a forbidden package
        that cannot be avoided).
        """
        roots = [parse_one(s) if isinstance(s, str) else s for s in specs]
        logger.info(
            "concretizing %s (encoding=%s, splicing=%s, %d reusable)",
            [str(r) for r in roots], self.encoding, self.splicing,
            len(self.reusable_specs),
        )

        with _cyclic_gc_paused(), trace.span(
            "concretize.solve",
            roots=[str(r) for r in roots],
            encoding=self.encoding,
            splicing=self.splicing,
        ) as outer:
            control, reusable_nodes, setup_seconds = self._prepare_control(
                roots, forbidden
            )
            result = control.solve()
            if not result.satisfiable:
                raise UnsatisfiableError(
                    f"no concretization for {[str(r) for r in roots]}"
                )

            with trace.span("concretize.extract"):
                extractor = ModelExtractor(result.model, self.lookup)
                by_name = extractor.extract()
            concrete_roots = [by_name[r.name] for r in roots]

        stats = dict(result.stats)
        stats["setup_time"] = setup_seconds
        stats["total_time"] = outer.duration
        stats["reusable_nodes"] = reusable_nodes
        logger.info(
            "concretized in %.3fs (setup %.3fs, ground %.3fs, "
            "translate %.3fs, solve %.3fs)",
            outer.duration, setup_seconds, stats.get("ground_time", 0.0),
            stats.get("translate_time", 0.0), stats.get("solve_time", 0.0),
        )
        return ConcretizationResult(concrete_roots, by_name, result.model, stats)

    def solve_all(
        self,
        specs: Sequence[Union[str, Spec]],
        forbidden: Sequence[str] = (),
    ) -> BatchConcretizationResult:
        """Concretize all roots in ONE ASP program (environment scale).

        The repository and reuse facts are encoded once and every ground
        rule is shared across roots, so per-root amortized cost drops
        superlinearly versus sequential single-root solves; shared
        dependencies unify into a single node.  Returns a
        :class:`BatchConcretizationResult` — the joint solve plus
        per-root DAG views.
        """
        roots = [parse_one(s) if isinstance(s, str) else s for s in specs]
        metrics.inc("concretize.batch_roots", len(roots))
        result = self.solve(roots, forbidden=forbidden)
        return BatchConcretizationResult(
            result.roots, result.by_name, result.model, result.stats
        )
