"""Encoding of reusable (already-built) specs — old and new styles.

OLD (Section 5.1.2): every attribute of a reusable spec becomes a direct
``imposed_constraint(Hash, ...)`` fact; choosing ``attr("hash", node, H)``
imposes them all, dependencies included, with no room for change.

NEW (Figure 3a): the same tuples become ``hash_attr(Hash, ...)`` facts;
``reuse_new.lp`` recovers ``imposed_constraint`` through one layer of
indirection, which is the hook splicing needs to withhold and replace
the ``hash``/``depends_on`` attributes of spliceable children.
"""

from __future__ import annotations

from typing import Container, Iterable, List, Set

from ..asp.syntax import Atom, String
from ..spec import Spec, DEPTYPE_LINK_RUN

__all__ = ["ReuseEncoder", "OLD_ENCODING", "NEW_ENCODING"]

OLD_ENCODING = "old"
NEW_ENCODING = "new"


def s(text) -> String:
    return String(str(text))


class ReuseEncoder:
    """Encodes a set of reusable concrete specs into ASP facts."""

    def __init__(self, encoding: str = NEW_ENCODING):
        if encoding not in (OLD_ENCODING, NEW_ENCODING):
            raise ValueError(f"unknown reuse encoding {encoding!r}")
        self.encoding = encoding
        self.predicate = (
            "imposed_constraint" if encoding == OLD_ENCODING else "hash_attr"
        )
        self.facts: List[Atom] = []
        self._seen_hashes: Set[str] = set()
        self._oses: Set[str] = set()
        self._targets: Set[str] = set()

    # ------------------------------------------------------------------
    def encode_nodes(
        self, nodes: Iterable[Spec], possible: Container[str]
    ) -> List[Atom]:
        """Encode the concrete nodes (deduplicated by hash) whose package
        is in ``possible``, in the order given.  ``known_os`` and
        ``known_target`` cover every node, encoded or not: they are the
        domain the solver picks a built node's os and target from."""
        for node in nodes:
            if node.os is not None:
                self._oses.add(node.os)
            if node.target is not None:
                self._targets.add(node.target)
            if node.name in possible:
                self._encode_node(node)
        for os_name in sorted(self._oses):
            self.facts.append(Atom("known_os", (s(os_name),)))
        for target in sorted(self._targets):
            self.facts.append(Atom("known_target", (s(target),)))
        return self.facts

    def _encode_node(self, node: Spec) -> None:
        h = node.dag_hash()
        if h in self._seen_hashes:
            return
        self._seen_hashes.add(h)
        name = node.name
        pred = self.predicate
        add = self.facts.append

        add(Atom("installed_hash", (s(name), s(h))))
        add(Atom(pred, (s(h), s("version"), s(name), s(node.version))))
        for _, variant in node.variants.items():
            add(
                Atom(
                    pred,
                    (s(h), s("variant"), s(name), s(variant.name), s(variant.value)),
                )
            )
        if node.os is not None:
            add(Atom(pred, (s(h), s("node_os"), s(name), s(node.os))))
        if node.target is not None:
            add(Atom(pred, (s(h), s("node_target"), s(name), s(node.target))))
        for edge in node.edges(DEPTYPE_LINK_RUN):
            child = edge.spec
            add(Atom(pred, (s(h), s("depends_on"), s(name), s(child.name))))
            add(Atom(pred, (s(h), s("hash"), s(child.name), s(child.dag_hash()))))

    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        return len(self._seen_hashes)
