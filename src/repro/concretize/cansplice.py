"""Compile ``can_splice`` directives into specialized ASP rules (Fig. 4a).

Each directive becomes one rule deriving ``can_splice(node(S), Target,
Hash)``: *there is a node S in the current solution, satisfying the
``when`` constraints, that can replace the installed spec Hash of
package Target, which satisfies the ``target`` constraints.*

``when`` constraints match the live node's ``attr`` atoms; ``target``
constraints match the reusable spec's ``hash_attr`` atoms — the paper
notes this cross-matching is one motivation for the hash_attr encoding.
"""

from __future__ import annotations

from typing import Container, List, Optional, Type

from ..asp.syntax import Atom, Literal, Rule, String, Variable
from ..package.package import PackageBase
from ..package.repository import Repository
from ..spec import Spec
from .encode import Encoder, node_term, s

__all__ = ["CanSpliceCompiler"]


class CanSpliceCompiler:
    """Generates the can_splice rules for every package in a repo."""

    def __init__(self, repo: Repository, encoder: Encoder):
        self.repo = repo
        self.encoder = encoder

    def compile_all(self, names: Container[str]) -> List[Rule]:
        """The rules of every splicing package in ``names``, in repository
        order."""
        rules: List[Rule] = []
        for pkg_cls in self.repo:
            if pkg_cls.name not in names:
                continue
            for index, decl in enumerate(pkg_cls.can_splice_decls):
                rules.append(self.compile_decl(pkg_cls, decl, index))
        return rules

    def compile_decl(
        self, pkg_cls: Type[PackageBase], decl, index: int
    ) -> Rule:
        splicer = pkg_cls.name
        target_spec: Spec = decl.target
        target_name = target_spec.name
        if target_name is None:
            raise ValueError(
                f"{splicer}: can_splice target must name a package: {target_spec}"
            )
        hash_var = Variable("Hash")
        node = node_term(splicer)

        body: List = [
            Literal(Atom("installed_hash", (s(target_name), hash_var))),
            Literal(Atom("attr", (s("node"), node))),
        ]

        # `when` constraints on the splicing node (live attr atoms)
        when: Optional[Spec] = decl.when
        if when is not None:
            if when.name is not None and when.name != splicer:
                raise ValueError(
                    f"{splicer}: can_splice when spec names {when.name!r}"
                )
            body += self.encoder.node_constraint_literals(when, splicer)[1:]

        # `target` constraints on the installed spec (hash_attr atoms)
        if not target_spec.versions.is_any:
            set_id = self.encoder.version_set(target_name, target_spec.versions)
            v = Variable("TargetV")
            body.append(
                Literal(
                    Atom("hash_attr", (hash_var, s("version"), s(target_name), v))
                )
            )
            body.append(Literal(Atom("version_in_set", (s(set_id), v))))
        for _, variant in target_spec.variants.items():
            body.append(
                Literal(
                    Atom(
                        "hash_attr",
                        (
                            hash_var,
                            s("variant"),
                            s(target_name),
                            s(variant.name),
                            s(variant.value),
                        ),
                    )
                )
            )
        if target_spec.os is not None:
            body.append(
                Literal(
                    Atom(
                        "hash_attr",
                        (hash_var, s("node_os"), s(target_name), s(target_spec.os)),
                    )
                )
            )
        if target_spec.target is not None:
            body.append(
                Literal(
                    Atom(
                        "hash_attr",
                        (
                            hash_var,
                            s("node_target"),
                            s(target_name),
                            s(target_spec.target),
                        ),
                    )
                )
            )

        head = Atom("can_splice", (node, s(target_name), hash_var))
        return Rule(head, body)
