"""The Spec data model: recursive build-configuration descriptions.

A :class:`Spec` describes a package configuration: name, version
constraint, variant settings, target OS and microarchitecture, and the
specs of its dependencies.  Dependencies form a directed acyclic
multigraph with two edge sets — ``build`` and ``link-run`` (Section 3.1 of
the paper).

Key operations:

* ``satisfies`` / ``intersects`` / ``constrain`` — the constraint lattice
  used by the packaging DSL and the concretizer.
* ``dag_hash`` — content hash over the full DAG, giving cheap equality on
  concrete specs.
* ``splice`` — the Figure-2 mechanics: replace a dependency of a concrete
  spec with an ABI-compatible substitute, transitively or intransitively,
  recording *build provenance* via ``build_spec`` and dropping build-only
  dependencies from rewired nodes.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .variant import VariantMap, VariantError
from .version import VersionList, any_version

__all__ = [
    "Spec",
    "DependencySpec",
    "SpecError",
    "UnsatisfiableSpecError",
    "DEPTYPE_BUILD",
    "DEPTYPE_LINK_RUN",
    "ALL_DEPTYPES",
]

DEPTYPE_BUILD = "build"
DEPTYPE_LINK_RUN = "link-run"
ALL_DEPTYPES = (DEPTYPE_BUILD, DEPTYPE_LINK_RUN)


class SpecError(ValueError):
    """Base error for malformed specs or invalid spec operations."""


class UnsatisfiableSpecError(SpecError):
    """Raised when constraining a spec with an incompatible constraint."""


class DependencySpec:
    """A labeled edge in the spec multigraph: parent depends on ``spec``."""

    __slots__ = ("spec", "deptypes", "virtual")

    def __init__(
        self,
        spec: "Spec",
        deptypes: Sequence[str] = (DEPTYPE_LINK_RUN,),
        virtual: Optional[str] = None,
    ):
        for dt in deptypes:
            if dt not in ALL_DEPTYPES:
                raise SpecError(f"unknown dependency type: {dt!r}")
        self.spec = spec
        self.deptypes = frozenset(deptypes)
        #: the virtual package name this edge satisfies, if any (e.g. "mpi")
        self.virtual = virtual

    def copy(self, spec: Optional["Spec"] = None) -> "DependencySpec":
        """Clone the edge, optionally substituting the child spec."""
        return DependencySpec(
            spec if spec is not None else self.spec.copy(),
            tuple(self.deptypes),
            self.virtual,
        )

    def __repr__(self) -> str:
        return f"DependencySpec({self.spec.name!r}, {sorted(self.deptypes)!r})"


class Spec:
    """A (possibly abstract) package configuration and its dependency DAG."""

    def __init__(
        self,
        name: Optional[str] = None,
        versions: Optional[VersionList] = None,
        variants: Optional[VariantMap] = None,
        os: Optional[str] = None,
        target: Optional[str] = None,
        namespace: str = "builtin",
    ):
        #: package name; None for anonymous constraint specs
        self.name = name
        self.namespace = namespace
        self.versions: VersionList = versions if versions is not None else any_version()
        self.variants: VariantMap = variants if variants is not None else VariantMap()
        self.os = os
        self.target = target
        #: externally installed package (e.g. vendor MPI); not built by us
        self.external: bool = False
        self.external_prefix: Optional[str] = None
        #: user-requested DAG-hash prefix (the ``name/abc123`` syntax);
        #: constrains concretization to one already-built spec
        self.abstract_hash: Optional[str] = None
        #: dependency edges keyed by child package name
        self._dependencies: Dict[str, DependencySpec] = {}
        #: provenance pointer for spliced specs (Section 4.1); None otherwise
        self.build_spec: Optional["Spec"] = None
        self._concrete: bool = False
        self._hash: Optional[str] = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def from_string(text: str) -> "Spec":
        """Parse spec syntax (Table 1).  Defined here for convenience."""
        from .parser import parse_one

        return parse_one(text)

    def add_dependency(
        self,
        child: "Spec",
        deptypes: Sequence[str] = (DEPTYPE_LINK_RUN,),
        virtual: Optional[str] = None,
    ) -> None:
        """Attach ``child`` as a dependency, merging edge types if present."""
        if child.name is None:
            raise SpecError("cannot depend on an anonymous spec")
        existing = self._dependencies.get(child.name)
        if existing is not None:
            existing.spec.constrain(child)
            merged = existing.deptypes | frozenset(deptypes)
            self._dependencies[child.name] = DependencySpec(
                existing.spec, tuple(merged), existing.virtual or virtual
            )
        else:
            self._dependencies[child.name] = DependencySpec(
                child, tuple(deptypes), virtual
            )
        self._invalidate_hash()

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def concrete(self) -> bool:
        """True once every attribute of every node is pinned."""
        return self._concrete

    @property
    def spliced(self) -> bool:
        """Only spliced specs carry a build spec (Section 4.2)."""
        return self.build_spec is not None

    @property
    def version(self):
        """The pinned Version; raises if the spec has a non-concrete range."""
        v = self.versions.concrete
        if v is None:
            raise SpecError(f"spec {self} has no concrete version")
        return v

    def dependencies(
        self, deptype: Optional[str] = None
    ) -> List["Spec"]:
        """Direct dependencies, optionally filtered by edge type."""
        out = []
        for edge in self._dependencies.values():
            if deptype is None or deptype in edge.deptypes:
                out.append(edge.spec)
        return sorted(out, key=lambda s: s.name or "")

    def edges(self, deptype: Optional[str] = None) -> List[DependencySpec]:
        """Direct dependency edges, sorted by child name."""
        return [
            e
            for _, e in sorted(self._dependencies.items())
            if deptype is None or deptype in e.deptypes
        ]

    def dependency_edge(self, name: str) -> Optional[DependencySpec]:
        """The direct edge to ``name``, or None."""
        return self._dependencies.get(name)

    def traverse(
        self,
        order: str = "pre",
        deptype: Optional[str] = None,
        root: bool = True,
        _visited: Optional[set] = None,
    ) -> Iterator["Spec"]:
        """DFS over the DAG, deduplicated by node identity/name."""
        if _visited is None:
            _visited = set()
        key = id(self)
        if key in _visited:
            return
        _visited.add(key)
        if root and order == "pre":
            yield self
        for edge in self.edges(deptype):
            yield from edge.spec.traverse(order, deptype, True, _visited)
        if root and order == "post":
            yield self

    def __getitem__(self, name: str) -> "Spec":
        """Find the dependency node with ``name`` anywhere in the DAG."""
        for node in self.traverse():
            if node.name == name:
                return node
        raise KeyError(name)

    def __contains__(self, item: Union[str, "Spec"]) -> bool:
        if isinstance(item, Spec):
            return any(node.satisfies(item) for node in self.traverse())
        return any(node.name == item for node in self.traverse())

    # ------------------------------------------------------------------
    # constraint lattice
    # ------------------------------------------------------------------
    def _node_satisfies(self, other: "Spec") -> bool:
        """Node-local satisfaction (ignores dependencies)."""
        if other.name is not None and self.name != other.name:
            return False
        if not self.versions.satisfies(other.versions):
            return False
        if not self.variants.satisfies(other.variants):
            return False
        if other.os is not None and self.os != other.os:
            return False
        if other.target is not None and self.target != other.target:
            return False
        if other.abstract_hash is not None and not self.dag_hash().startswith(
            other.abstract_hash
        ):
            return False
        return True

    def satisfies(self, other: Union[str, "Spec"]) -> bool:
        """True if this spec meets every constraint expressed by ``other``.

        Dependency constraints in ``other`` (written with ``^``) may match
        *anywhere* in this spec's DAG, mirroring Spack's semantics.
        """
        if isinstance(other, str):
            other = Spec.from_string(other)
        if not self._node_satisfies(other):
            return False
        for dep_constraint in other.dependencies():
            candidates = [
                n for n in self.traverse(root=False) if n.name == dep_constraint.name
            ]
            if not candidates:
                # An abstract spec without the dependency cannot *prove*
                # satisfaction; a concrete one has a complete DAG.
                return False
            if not any(c.satisfies(dep_constraint) for c in candidates):
                return False
        return True

    def intersects(self, other: Union[str, "Spec"]) -> bool:
        """True if some concrete spec could satisfy both constraints."""
        if isinstance(other, str):
            other = Spec.from_string(other)
        if (
            other.name is not None
            and self.name is not None
            and self.name != other.name
        ):
            return False
        if not self.versions.intersects(other.versions):
            return False
        if not self.variants.intersects(other.variants):
            return False
        if other.os is not None and self.os is not None and self.os != other.os:
            return False
        if (
            other.target is not None
            and self.target is not None
            and self.target != other.target
        ):
            return False
        for dep in other.dependencies():
            mine = self._find_node(dep.name)
            if mine is not None and not mine.intersects(dep):
                return False
        # and the mirror image, so intersects stays symmetric: our own
        # dependency constraints must not contradict other's DAG either
        for dep in self.dependencies():
            theirs = other._find_node(dep.name)
            if theirs is not None and not theirs.intersects(dep):
                return False
        return True

    def constrain(self, other: Union[str, "Spec"]) -> bool:
        """Merge ``other``'s constraints into this spec (in place).

        Returns True if this spec changed.  Raises
        :class:`UnsatisfiableSpecError` if the constraints conflict.
        """
        if isinstance(other, str):
            other = Spec.from_string(other)
        if self._concrete:
            raise SpecError("cannot constrain a concrete spec")
        if not self.intersects(other):
            raise UnsatisfiableSpecError(f"{self} does not intersect {other}")
        changed = False
        if self.name is None and other.name is not None:
            self.name = other.name
            changed = True
        merged_versions = self.versions.intersection(other.versions)
        if not merged_versions:
            raise UnsatisfiableSpecError(
                f"empty version intersection: {self.versions} & {other.versions}"
            )
        if merged_versions != self.versions:
            self.versions = merged_versions
            changed = True
        try:
            changed |= self.variants.constrain(other.variants)
        except VariantError as e:
            raise UnsatisfiableSpecError(str(e)) from e
        for attr in ("os", "target", "abstract_hash"):
            theirs = getattr(other, attr)
            if theirs is not None:
                mine = getattr(self, attr)
                if mine is None:
                    setattr(self, attr, theirs)
                    changed = True
                elif mine != theirs:
                    raise UnsatisfiableSpecError(
                        f"conflicting {attr}: {mine!r} vs {theirs!r}"
                    )
        for edge in other.edges():
            mine = self._find_node(edge.spec.name)
            if mine is None:
                self.add_dependency(edge.spec.copy(), tuple(edge.deptypes), edge.virtual)
                changed = True
            else:
                changed |= mine.constrain(edge.spec)
        if changed:
            self._invalidate_hash()
        return changed

    def _find_node(self, name: str) -> Optional["Spec"]:
        for node in self.traverse():
            if node.name == name:
                return node
        return None

    # ------------------------------------------------------------------
    # hashing and equality
    # ------------------------------------------------------------------
    def _invalidate_hash(self) -> None:
        self._hash = None

    def node_dict(self) -> dict:
        """Canonical JSON-able description of this node (not its deps)."""
        return {
            "name": self.name,
            "namespace": self.namespace,
            "versions": str(self.versions),
            "variants": {v.name: v.value for _, v in self.variants.items()},
            "os": self.os,
            "target": self.target,
            "external": self.external,
        }

    def dag_hash(self, length: int = 32) -> str:
        """Content hash over the node and its full dependency DAG.

        Spliced specs hash differently from their build specs because the
        ``build_spec`` pointer participates in the hash — two DAGs that
        *look* identical but were produced differently stay distinct,
        preserving provenance (Section 4.1).
        """
        if self._hash is None:
            record = self.node_dict()
            record["deps"] = [
                (e.spec.name, e.spec.dag_hash(), sorted(e.deptypes))
                for e in self.edges()
            ]
            if self.build_spec is not None:
                record["build_spec"] = self.build_spec.dag_hash()
            blob = json.dumps(record, sort_keys=True).encode()
            self._hash = hashlib.sha256(blob).hexdigest()
        return self._hash[:length]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Spec):
            return NotImplemented
        return self.dag_hash() == other.dag_hash()

    def __hash__(self) -> int:
        return hash(self.dag_hash())

    # ------------------------------------------------------------------
    # copying and concreteness
    # ------------------------------------------------------------------
    def copy(self, deps: bool = True) -> "Spec":
        """Deep copy; shares nothing mutable with the original."""
        new = Spec(
            self.name,
            VersionList(list(self.versions.constraints)),
            self.variants.copy(),
            self.os,
            self.target,
            self.namespace,
        )
        new.external = self.external
        new.external_prefix = self.external_prefix
        new.abstract_hash = self.abstract_hash
        new._concrete = self._concrete
        new.build_spec = self.build_spec  # provenance is shared, not copied
        if deps:
            # Preserve DAG sharing: copy each distinct node once.
            memo: Dict[int, Spec] = {}
            new._dependencies = {
                name: edge.copy(_copy_node(edge.spec, memo))
                for name, edge in self._dependencies.items()
            }
        return new

    def _mark_concrete(self, value: bool = True) -> None:
        for node in self.traverse():
            node._concrete = value
            node._invalidate_hash()

    def validate_concrete(self) -> None:
        """Check all attributes are pinned; raise SpecError otherwise."""
        for node in self.traverse():
            problems = []
            if node.name is None:
                problems.append("name")
            if node.versions.concrete is None:
                problems.append("version")
            if node.os is None:
                problems.append("os")
            if node.target is None:
                problems.append("target")
            if problems:
                raise SpecError(
                    f"spec node {node} is not concrete: missing {', '.join(problems)}"
                )

    # ------------------------------------------------------------------
    # splicing (Section 4)
    # ------------------------------------------------------------------
    def splice(
        self,
        other: "Spec",
        transitive: bool = True,
        replace: Optional[str] = None,
    ) -> "Spec":
        """Replace a dependency of this concrete spec with ``other``.

        ``other`` must be concrete (it is an already-built binary).  By
        default the node replaced is the one named ``other.name``; pass
        ``replace`` when the names differ (cross-package splices declared
        with ``can_splice("example-ng...", when=...)``).

        *Transitive* splices (the default) bring in ``other``'s entire
        link-run subdag: any dependency shared between this spec and
        ``other`` resolves to **other's** version.  *Intransitive* splices
        keep **this spec's** versions of shared dependencies, re-pointing
        ``other`` at them (Figure 2, red background).

        Every node whose dependency hashes changed becomes a *spliced
        node*: it keeps package attributes but gains a ``build_spec``
        pointer to the original node and drops its build-only dependency
        edges (they describe how the binary was produced, which did not
        change — the build spec retains them).

        Returns a new concrete Spec; neither input is mutated.
        """
        if not self._concrete:
            raise SpecError("splice requires a concrete target spec")
        if not other._concrete:
            raise SpecError("splice requires a concrete replacement spec")
        replaced_name = replace or other.name
        if self._find_node(replaced_name) is None:
            raise SpecError(
                f"{self.name} has no dependency {replaced_name!r} to splice"
            )
        if replaced_name == self.name:
            raise SpecError("cannot splice a spec into itself")

        if transitive:
            # Replacement map: the spliced node, plus every node in other's
            # subdag that shadows a same-named node in self's DAG.
            replacements: Dict[str, Spec] = {replaced_name: other}
            self_names = {n.name for n in self.traverse()}
            for node in other.traverse(root=False):
                if node.name in self_names and node.name != replaced_name:
                    replacements[node.name] = node
        else:
            # Re-point other at self's existing shared dependencies.
            shared = {}
            for dep in other.traverse(root=False, deptype=DEPTYPE_LINK_RUN):
                mine = self._find_node(dep.name)
                if (
                    mine is not None
                    and mine.name != replaced_name
                    and mine.dag_hash() != dep.dag_hash()
                ):
                    shared[dep.name] = mine
            rewired_other = _rebuild(other, shared, {})
            replacements = {replaced_name: rewired_other}

        return _rebuild(self, replacements, {})

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def format(self, **kwargs) -> str:
        """One-line Table-1 rendering (see :func:`repro.spec.format_spec`)."""
        from .format import format_spec

        return format_spec(self, **kwargs)

    def short_str(self) -> str:
        """Compact ``name@version +variants`` rendering, no deps/arch."""
        parts = [self.name or ""]
        v = self.versions.concrete
        if v is not None:
            parts.append(f"@{v}")
        elif not self.versions.is_any:
            parts.append(f"@{self.versions}")
        variants = str(self.variants)
        if variants:
            parts.append(variants if variants.startswith(("+", "~")) else f" {variants}")
        return "".join(parts)

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"<Spec {self.format()}>"

    def to_dict(self) -> dict:
        """JSON-serializable full-DAG description (for buildcache indexes)."""
        nodes = []
        for node in self.traverse(order="post"):
            rec = node.node_dict()
            rec["hash"] = node.dag_hash()
            rec["dependencies"] = [
                {
                    "name": e.spec.name,
                    "hash": e.spec.dag_hash(),
                    "deptypes": sorted(e.deptypes),
                    "virtual": e.virtual,
                }
                for e in node.edges()
            ]
            if node.build_spec is not None:
                rec["build_spec"] = {
                    "name": node.build_spec.name,
                    "hash": node.build_spec.dag_hash(),
                }
            nodes.append(rec)
        return {"root": self.dag_hash(), "nodes": nodes}

    @staticmethod
    def from_dict(data: dict, build_spec_lookup=None, memo=None) -> "Spec":
        """Reconstruct a concrete spec DAG from :meth:`to_dict` output.

        ``build_spec_lookup`` maps hashes to Specs for resolving
        ``build_spec`` provenance pointers across documents.

        ``memo`` (hash -> node) shares nodes across documents: a record
        whose hash is in it reuses that node, and every node built here
        is added to it.  A shared node feeds every DAG that names it, so
        each new node's ``dag_hash()`` must equal the hash its record
        carries before it enters the memo; a mismatch raises
        :class:`SpecError`.
        """
        by_hash: Dict[str, Spec] = {}
        for rec in data["nodes"]:  # post-order: deps before dependents
            key = rec["hash"]
            if memo is not None and key in memo:
                by_hash[key] = memo[key]
                continue
            node = Spec(
                rec["name"],
                VersionList.from_string(rec["versions"]),
                VariantMap(rec["variants"]),
                rec["os"],
                rec["target"],
                rec.get("namespace", "builtin"),
            )
            node.external = rec.get("external", False)
            for dep in rec["dependencies"]:
                child = by_hash.get(dep["hash"])
                if child is None:
                    raise SpecError(
                        f"dangling dependency hash {dep['hash']} in spec document"
                    )
                node.add_dependency(child, tuple(dep["deptypes"]), dep.get("virtual"))
            bs = rec.get("build_spec")
            if bs is not None and build_spec_lookup is not None:
                node.build_spec = build_spec_lookup(bs["hash"])
            node._concrete = True
            if memo is not None:
                if node.dag_hash() != key:
                    raise SpecError(
                        f"spec document record {rec['name']} carries hash "
                        f"{key} but its content hashes to {node.dag_hash()}"
                    )
                memo[key] = node
            by_hash[key] = node
        root = by_hash.get(data["root"])
        if root is None:
            raise SpecError("spec document has no root node")
        return root


def _copy_node(spec: Spec, memo: Dict[int, Spec]) -> Spec:
    """Deep-copy preserving shared-subdag structure."""
    key = id(spec)
    if key in memo:
        return memo[key]
    new = spec.copy(deps=False)
    memo[key] = new
    new._dependencies = {
        name: edge.copy(_copy_node(edge.spec, memo))
        for name, edge in spec._dependencies.items()
    }
    return new


def _rebuild(spec: Spec, replacements: Dict[str, Spec], memo: Dict[int, Spec]) -> Spec:
    """Rebuild a concrete DAG applying node replacements.

    Nodes whose dependency hashes change become spliced nodes: they gain a
    ``build_spec`` pointer to the original node (unless they already carry
    one — provenance chains stay rooted at the true original build) and drop
    their build-only dependency edges.
    """
    key = id(spec)
    if key in memo:
        return memo[key]

    new = spec.copy(deps=False)
    memo[key] = new
    changed = False
    new_deps: Dict[str, DependencySpec] = {}
    for name, edge in spec._dependencies.items():
        if name in replacements:
            replacement = replacements[name]
            if replacement.dag_hash() != edge.spec.dag_hash():
                changed = True
            # cross-package splices rekey the edge to the new name
            new_deps[replacement.name] = edge.copy(replacement)
        else:
            child = _rebuild(edge.spec, replacements, memo)
            if child.dag_hash() != edge.spec.dag_hash():
                changed = True
            new_deps[name] = edge.copy(child)

    if changed:
        # Spliced node: record provenance, drop build-only edges.
        original = spec if spec.build_spec is None else spec.build_spec
        new.build_spec = original
        new._dependencies = {
            name: e
            for name, e in new_deps.items()
            if DEPTYPE_LINK_RUN in e.deptypes
        }
    else:
        new._dependencies = new_deps
    new._concrete = True
    new._invalidate_hash()
    return new
