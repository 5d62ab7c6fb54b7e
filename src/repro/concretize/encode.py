"""Compile packages and abstract specs into ASP facts and rules.

The encoding follows Section 5.1 of the paper:

* specs become ``node``/``attr`` facts;
* package directives become ``pkg_fact`` facts plus *condition* rules
  (we generate one specialized ``condition_holds`` rule per conditional
  directive — semantically equivalent to the paper's data-driven
  ``condition``/``condition_requirement`` tables, and the same shape the
  paper itself uses for ``can_splice``, Figure 4a);
* version *constraints* (ranges) are discretized in Python: each
  distinct constraint becomes a ``version_in_set`` fact set over the
  package's declared versions.
"""

from __future__ import annotations

import hashlib
from typing import Container, Dict, Iterable, List, Optional, Sequence, Tuple, Type

from ..asp.syntax import (
    Atom,
    Comparison,
    Function,
    Integer,
    Literal,
    Program,
    Rule,
    String,
)
from ..package.package import PackageBase
from ..package.repository import Repository
from ..spec import Spec, VersionList, DEPTYPE_BUILD, DEPTYPE_LINK_RUN

__all__ = ["Encoder", "EncodingError", "node_term", "s"]


class EncodingError(ValueError):
    """Raised when a spec or package cannot be encoded."""


def s(text) -> String:
    return String(str(text))


def node_term(name: str) -> Function:
    return Function("node", [s(name)])


def atom(predicate: str, *args) -> Atom:
    return Atom(predicate, args)


class Encoder:
    """Stateful encoder: accumulates facts/rules for one concretization.

    A fresh Encoder is used per solve; package encodings are cached at
    class level keyed by package class (they never change at runtime).
    """

    _package_cache: Dict[Tuple[type, bool], Tuple[List[Atom], List[Rule]]] = {}

    def __init__(self, repo: Repository):
        self.repo = repo
        self.facts: List[Atom] = []
        self.rules: List[Rule] = []
        self._vset_counter = 0
        self._vset_ids: Dict[Tuple[str, str], str] = {}
        self._condition_counter = 0

    # ------------------------------------------------------------------
    # version sets
    # ------------------------------------------------------------------
    def version_set(self, package: str, versions: VersionList) -> str:
        """Register the set of declared versions of ``package`` that
        satisfy ``versions``; returns the set id for ``version_in_set``."""
        key = (package, str(versions))
        cached = self._vset_ids.get(key)
        if cached is not None:
            return cached
        set_id = f"vset-{package}-{self._vset_counter}"
        self._vset_counter += 1
        self._vset_ids[key] = set_id
        pkg_cls = self.repo.get(package)
        for declared in pkg_cls.declared_versions():
            if declared.satisfies(versions):
                self.facts.append(atom("version_in_set", s(set_id), s(declared)))
        return set_id

    def _fresh_condition(self, package: str) -> str:
        self._condition_counter += 1
        return f"cond-{package}-{self._condition_counter}"

    # ------------------------------------------------------------------
    # node constraints as body literals
    # ------------------------------------------------------------------
    def node_constraint_literals(self, spec: Spec, node_name: str) -> List[Literal]:
        """Body literals requiring the node ``node_name`` to satisfy the
        node-local constraints of ``spec`` (version/variants/os/target)."""
        node = node_term(node_name)
        lits: List[Literal] = [Literal(atom("attr", s("node"), node))]
        if not spec.versions.is_any:
            set_id = self.version_set(node_name, spec.versions)
            # bind the node's version and require membership
            from ..asp.syntax import Variable

            v = Variable(f"V_{abs(hash((node_name, set_id))) % 10_000}")
            lits.append(Literal(atom("attr", s("version"), node, v)))
            lits.append(Literal(atom("version_in_set", s(set_id), v)))
        for _, variant in spec.variants.items():
            lits.append(
                Literal(
                    atom("attr", s("variant"), node, s(variant.name), s(variant.value))
                )
            )
        if spec.os is not None:
            lits.append(Literal(atom("attr", s("node_os"), node, s(spec.os))))
        if spec.target is not None:
            lits.append(Literal(atom("attr", s("node_target"), node, s(spec.target))))
        return lits

    # ------------------------------------------------------------------
    # package encoding
    # ------------------------------------------------------------------
    def encode_repository(self, names: Container[str]) -> None:
        """Encode the packages and virtuals in ``names`` (a request's
        possible dependencies), in repository order."""
        for pkg_cls in self.repo:
            if pkg_cls.name in names:
                self.encode_package(pkg_cls)
        self.encode_virtuals(names)

    def encode_virtuals(self, names: Container[str]) -> None:
        for virtual in self.repo.virtual_names():
            if virtual not in names:
                continue
            self.facts.append(atom("virtual", s(virtual)))
            for provider in self.repo.providers(virtual):
                weight = self.repo.provider_weight(virtual, provider)
                self.facts.append(
                    atom("possible_provider", s(provider), s(virtual), Integer(weight))
                )

    def encode_package(self, pkg_cls: Type[PackageBase]) -> None:
        name = pkg_cls.name
        self.facts.append(atom("pkg", s(name)))
        if not pkg_cls.buildable:
            self.facts.append(atom("not_buildable", s(name)))

        # versions, newest first; weight = preference rank
        for weight, version in enumerate(pkg_cls.declared_versions()):
            self.facts.append(
                atom(
                    "pkg_fact",
                    s(name),
                    Function("version_declared", [s(version), Integer(weight)]),
                )
            )

        # variants
        for decl in pkg_cls.variant_decls:
            self.facts.append(
                atom("pkg_fact", s(name), Function("variant", [s(decl.name)]))
            )
            default = "True" if decl.default is True else (
                "False" if decl.default is False else str(decl.default)
            )
            self.facts.append(
                atom(
                    "pkg_fact",
                    s(name),
                    Function("variant_default", [s(decl.name), s(default)]),
                )
            )
            for value in decl.allowed_values():
                self.facts.append(
                    atom(
                        "pkg_fact",
                        s(name),
                        Function("variant_possible", [s(decl.name), s(value)]),
                    )
                )

        # dependencies
        for decl in pkg_cls.dependency_decls:
            self._encode_dependency(name, decl)

        # provides: every declaration gets a condition (unconditional
        # ones reduce to node presence); the logic program requires a
        # chosen provider to have SOME holding provides-condition
        for decl in pkg_cls.provides_decls:
            cond_id = self._fresh_condition(name)
            body = self._when_body(name, decl.when)
            self.rules.append(Rule(atom("condition_holds", s(cond_id)), body))
            self.facts.append(
                atom("provides_condition", s(name), s(decl.virtual.name), s(cond_id))
            )

        # conflicts: condition is when AND the conflicting constraint
        # (including its ^dependency constraints, matched by node name)
        for decl in pkg_cls.conflict_decls:
            cond_id = self._fresh_condition(name)
            body = self._when_body(name, decl.when)
            body += self.node_constraint_literals(decl.spec, name)[1:]
            for dep in decl.spec.dependencies():
                body += self.node_constraint_literals(dep, dep.name)
            self.rules.append(Rule(atom("condition_holds", s(cond_id)), body))
            self.rules.append(
                Rule(None, [Literal(atom("condition_holds", s(cond_id)))])
            )

        # requires: when condition holds, own node must match the spec
        for decl in pkg_cls.requires_decls:
            cond_id = self._fresh_condition(name)
            body = self._when_body(name, decl.when)
            self.rules.append(Rule(atom("condition_holds", s(cond_id)), body))
            self._impose_node_constraints(cond_id, name, decl.spec)

    def _when_body(self, package: str, when: Optional[Spec]) -> List[Literal]:
        """The condition body for a directive on ``package``: node
        presence plus any ``when`` constraints."""
        node = node_term(package)
        if when is None:
            return [Literal(atom("attr", s("node"), node))]
        if when.name is not None and when.name != package:
            raise EncodingError(
                f"when spec {when} names a different package than {package}"
            )
        body = self.node_constraint_literals(when, package)
        # dependency constraints inside when specs (e.g. when="^mpich")
        for dep in when.dependencies():
            body += self.node_constraint_literals(dep, dep.name)
        return body

    def _encode_dependency(self, package: str, decl) -> None:
        dep_spec = decl.spec
        dep_name = dep_spec.name
        cond_id = self._fresh_condition(package)
        body = self._when_body(package, decl.when)
        self.rules.append(Rule(atom("condition_holds", s(cond_id)), body))
        cond_lit = Literal(atom("condition_holds", s(cond_id)))
        node = node_term(package)

        if self.repo.is_virtual(dep_name):
            if DEPTYPE_LINK_RUN in decl.deptypes:
                self.rules.append(
                    Rule(
                        atom("attr", s("virtual_dependency"), node, s(dep_name)),
                        [cond_lit],
                    )
                )
            # Constraints on virtual deps apply to the chosen provider's
            # *virtual version*, which our repos do not use; reject early.
            if not dep_spec.versions.is_any or len(dep_spec.variants):
                raise EncodingError(
                    f"{package}: constraints on virtual dependency {dep_name!r} "
                    "are not supported"
                )
            return

        if dep_name not in self.repo:
            raise EncodingError(f"{package} depends on unknown package {dep_name!r}")

        dep_node = node_term(dep_name)
        for deptype in decl.deptypes:
            body = [cond_lit]
            if deptype == DEPTYPE_BUILD:
                # Build dependencies only matter for nodes we actually
                # build — reused binaries no longer need them (their
                # build spec retains the provenance, Section 4.1).
                body.append(Literal(atom("build", s(package))))
            self.rules.append(
                Rule(
                    atom("attr", s("depends_on"), node, dep_node, s(deptype)),
                    body,
                )
            )
        self._impose_node_constraints(cond_id, dep_name, dep_spec)

    def _impose_node_constraints(self, cond_id: str, target: str, spec: Spec) -> None:
        """When ``cond_id`` holds, the node ``target`` must satisfy the
        node-local constraints of ``spec``."""
        cond_lit = Literal(atom("condition_holds", s(cond_id)))
        node = node_term(target)
        if not spec.versions.is_any:
            set_id = self.version_set(target, spec.versions)
            from ..asp.syntax import Variable

            v = Variable("ImposedV")
            self.rules.append(
                Rule(
                    None,
                    [
                        cond_lit,
                        Literal(atom("attr", s("version"), node, v)),
                        Literal(atom("version_in_set", s(set_id), v), positive=False),
                    ],
                )
            )
        for _, variant in spec.variants.items():
            self.rules.append(
                Rule(
                    atom("attr", s("variant"), node, s(variant.name), s(variant.value)),
                    [cond_lit],
                )
            )
        if spec.os is not None:
            self.rules.append(
                Rule(atom("attr", s("node_os"), node, s(spec.os)), [cond_lit])
            )
        if spec.target is not None:
            self.rules.append(
                Rule(atom("attr", s("node_target"), node, s(spec.target)), [cond_lit])
            )

    # ------------------------------------------------------------------
    # request (abstract specs) encoding
    # ------------------------------------------------------------------
    def encode_request(
        self,
        roots: Sequence[Spec],
        forbidden: Sequence[str] = (),
        default_os: str = "centos8",
        default_target: str = "skylake",
    ) -> None:
        """Encode user-requested abstract specs.

        Each root package gets a ``root`` fact; node-local constraints
        on the root and its ``^`` dependency constraints become forced
        ``attr`` facts (point values) or integrity constraints (version
        sets).  ``forbidden`` names may not appear as nodes at all.
        """
        self.facts.append(atom("default_os", s(default_os)))
        self.facts.append(atom("default_target", s(default_target)))
        self.facts.append(atom("known_os", s(default_os)))
        self.facts.append(atom("known_target", s(default_target)))
        for root in roots:
            if root.name is None:
                raise EncodingError("cannot concretize an anonymous spec")
            if root.name not in self.repo:
                if self.repo.is_virtual(root.name):
                    raise EncodingError(
                        f"cannot request virtual {root.name!r} directly; "
                        "request a provider"
                    )
                raise EncodingError(f"unknown package {root.name!r}")
            self.facts.append(atom("root", s(root.name)))
            self._force_node_constraints(root)
            build_only = {
                e.spec.name
                for e in root.edges()
                if e.deptypes == frozenset([DEPTYPE_BUILD])
            }
            for dep in root.traverse(root=False):
                if self.repo.is_virtual(dep.name):
                    raise EncodingError(
                        f"constraint on virtual {dep.name!r} not supported; "
                        "constrain a provider instead"
                    )
                if dep.name not in self.repo:
                    raise EncodingError(f"unknown package {dep.name!r}")
                self.facts.append(atom("requested_node", s(dep.name)))
                if dep.name in build_only:
                    # %compiler-style requests add a direct build edge
                    # (no link-run reachability requirement applies)
                    self.facts.append(
                        atom(
                            "attr",
                            s("depends_on"),
                            node_term(root.name),
                            node_term(dep.name),
                            s(DEPTYPE_BUILD),
                        )
                    )
                else:
                    self.facts.append(
                        atom("requested_dep", s(root.name), s(dep.name))
                    )
                self._force_node_constraints(dep)
        for name in forbidden:
            self.rules.append(
                Rule(
                    None,
                    [Literal(atom("attr", s("node"), node_term(name)))],
                )
            )

    def _force_node_constraints(self, spec: Spec) -> None:
        node = node_term(spec.name)
        concrete_v = spec.versions.concrete
        if concrete_v is not None:
            self.facts.append(atom("attr", s("version"), node, s(concrete_v)))
        elif not spec.versions.is_any:
            set_id = self.version_set(spec.name, spec.versions)
            from ..asp.syntax import Variable

            v = Variable("UserV")
            self.rules.append(
                Rule(
                    None,
                    [
                        Literal(atom("attr", s("node"), node)),
                        Literal(atom("attr", s("version"), node, v)),
                        Literal(atom("version_in_set", s(set_id), v), positive=False),
                    ],
                )
            )
        for _, variant in spec.variants.items():
            self.facts.append(
                atom("attr", s("variant"), node, s(variant.name), s(variant.value))
            )
        if spec.os is not None:
            self.facts.append(atom("attr", s("node_os"), node, s(spec.os)))
            self.facts.append(atom("known_os", s(spec.os)))
        if spec.target is not None:
            self.facts.append(atom("attr", s("node_target"), node, s(spec.target)))
            self.facts.append(atom("known_target", s(spec.target)))

    # ------------------------------------------------------------------
    def into_program(self, program: Program) -> None:
        for fact in self.facts:
            program.add_fact(fact)
        for rule in self.rules:
            program.add_rule(rule)
