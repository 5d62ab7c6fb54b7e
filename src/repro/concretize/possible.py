"""The possible dependencies of a request: the only packages a solve needs.

Every ``attr("node", …)`` atom of a model comes from a root, a ``^``
request, a declared dependency of a node (under any condition), a
provider of a virtual such a dependency names, or an edge imposed by a
reused (cached) node.  So the closure of the request's names under those
four steps bounds every node of every model, and a solve may encode only
the packages, ``can_splice`` rules and cached nodes named in it: the
facts left out can never fire.  Spack limits its programs the same way
(Gamblin et al., "Using Answer Set Programming for HPC Dependency
Solving").
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set

from ..package.repository import Repository
from ..spec import Spec

__all__ = ["possible_dependencies"]


def possible_dependencies(
    repo: Repository,
    roots: Sequence[Spec],
    hash_names: Iterable[str],
    cached_children: Dict[str, List[str]],
) -> Set[str]:
    """Package and virtual names reachable from the request.

    ``hash_names`` are the packages that ``/hash`` requests resolved to;
    ``cached_children`` maps a package name to the link-run children of
    every cached node of that name.
    """
    pending = [node.name for root in roots for node in root.traverse() if node.name]
    pending.extend(hash_names)
    names: Set[str] = set()
    while pending:
        name = pending.pop()
        if name in names:
            continue
        names.add(name)
        if repo.is_virtual(name):
            pending.extend(repo.providers(name))
        elif name in repo:
            pending.extend(decl.spec.name for decl in repo.get(name).dependency_decls)
        pending.extend(cached_children.get(name, ()))
    return names
