"""Stable-model search: supported models + lazy loop formulas (ASSAT).

The completion CNF admits every *supported* model; supported models can
still contain positively-circular justifications ("unfounded sets").
Following Lin & Zhao's ASSAT method, we:

1. find a supported model with the CDCL core;
2. compute the least fixpoint of the model's reduct — atoms derivable
   from facts through rules whose negative body the model satisfies
   (choice atoms count as self-derivable when some choice rule licenses
   them);
3. if every true atom is derived, the model is stable — done;
4. otherwise the underived true atoms form an unfounded set ``U``: add,
   for each ``a ∈ U``, the loop formula ``a → ∨ external supports of U``
   (supports whose positive atoms avoid ``U``), and re-solve.

Only *loop atoms* — atoms on a cycle of the positive dependency graph
(head → positive body atom) — need step 2.  In a supported model every
non-empty unfounded set contains a loop atom (Lin & Zhao), and a true
atom off every cycle is founded once the true loop atoms below it are:
its true support's positive atoms lie in strictly lower components.  So
the loop atoms are found once per ground program (Tarjan) and the
fixpoint runs over them alone, every other true atom counting as
founded.  Dependency DAGs are acyclic, so concretizer programs have few
loop atoms and almost never trigger step 4 — but correctness does not
rely on that.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from .sat import FALSE, TRUE
from .syntax import Atom
from .translate import Translator

__all__ = ["StableModelFinder"]


class StableModelFinder:
    """Finds stable models of a ground program, lazily adding loop
    formulas on top of a shared :class:`Translator`."""

    def __init__(self, translator: Translator):
        self.translator = translator
        self.loop_formulas_added = 0
        #: invocations of :meth:`solve` (each a model or an UNSAT proof)
        self.calls = 0
        #: atoms on a positive cycle, in translation order
        self.loop_atoms: List[Atom] = self._find_loop_atoms()
        loop_set = set(self.loop_atoms)
        #: per loop atom: (support var, the loop atoms it depends on)
        self._loop_supports: Dict[Atom, List[Tuple[int, Tuple[Atom, ...]]]] = {
            atom: [
                (support.var, tuple(p for p in support.pos_atoms if p in loop_set))
                for support in translator.supports.get(atom, ())
            ]
            for atom in self.loop_atoms
        }

    # ------------------------------------------------------------------
    def solve(self, assumptions: Sequence[int] = ()) -> Optional[Set[Atom]]:
        """Return a stable model (set of true atoms) or None if UNSAT."""
        self.calls += 1
        solver = self.translator.solver
        while True:
            if not solver.solve(assumptions):
                return None
            assignment = solver.model()
            unfounded = self._unfounded_set(assignment)
            if not unfounded:
                return self.translator.decode_model()
            if not self._add_loop_formulas(unfounded, assignment):
                raise RuntimeError(
                    "loop repair added no clause the current model violates"
                )

    # ------------------------------------------------------------------
    def _find_loop_atoms(self) -> List[Atom]:
        """Atoms in a non-trivial strongly connected component (or with
        a self-edge) of the positive dependency graph; iterative Tarjan."""
        translator = self.translator
        graph: Dict[Atom, List[Atom]] = {
            atom: [] for atom in translator.supports if atom not in translator.facts
        }
        for atom, successors in graph.items():
            for support in translator.supports[atom]:
                successors.extend(p for p in support.pos_atoms if p in graph)

        index: Dict[Atom, int] = {}
        low: Dict[Atom, int] = {}
        stack: List[Atom] = []
        on_stack: Set[Atom] = set()
        loops: Set[Atom] = set()
        for start in graph:
            if start in index:
                continue
            index[start] = low[start] = len(index)
            stack.append(start)
            on_stack.add(start)
            work = [(start, iter(graph[start]))]
            while work:
                node, successors = work[-1]
                for succ in successors:
                    if succ not in index:
                        index[succ] = low[succ] = len(index)
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, iter(graph[succ])))
                        break
                    if succ in on_stack:
                        low[node] = min(low[node], index[succ])
                else:
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        low[parent] = min(low[parent], low[node])
                    if low[node] == index[node]:
                        component = []
                        while True:
                            member = stack.pop()
                            on_stack.discard(member)
                            component.append(member)
                            if member == node:
                                break
                        if len(component) > 1 or node in graph[node]:
                            loops.update(component)
        return [atom for atom in graph if atom in loops]

    def _unfounded_set(self, assignment: List[int]) -> List[Atom]:
        """True loop atoms not derivable in the reduct's least fixpoint,
        every true atom off a positive cycle counting as founded."""
        atom_var = self.translator.atom_var
        pending = [a for a in self.loop_atoms if assignment[atom_var[a]] == TRUE]
        derived: Set[Atom] = set()
        changed = True
        while pending and changed:
            changed = False
            still: List[Atom] = []
            for atom in pending:
                if any(
                    assignment[var] == TRUE and all(p in derived for p in deps)
                    for var, deps in self._loop_supports[atom]
                ):
                    derived.add(atom)
                    changed = True
                else:
                    still.append(atom)
            pending = still
        return pending

    # ------------------------------------------------------------------
    def _add_loop_formulas(
        self, unfounded: List[Atom], assignment: List[int]
    ) -> bool:
        """Add the loop formulas of ``unfounded``; True when at least one
        added clause is violated by ``assignment`` (the repair progresses)."""
        # Lin–Zhao: if any atom of an unfounded set is true, some
        # *external* support of the set (a support whose positive atoms
        # all lie outside the set) must be active.  The whole unfounded
        # set may union several independent loops — split it into
        # positively-connected components first so each gets a targeted
        # (and much stronger) formula, converging in fewer repairs.
        solver = self.translator.solver
        progressed = False
        for component in self._components(unfounded):
            externals = [
                support.var
                for atom in component
                for support in self.translator.supports.get(atom, ())
                if not any(p in component for p in support.pos_atoms)
            ]
            blocked = all(assignment[var] == FALSE for var in externals)
            for atom in component:
                var = self.translator.atom_var[atom]
                solver.add_clause([-var] + externals)
                self.loop_formulas_added += 1
                progressed |= blocked and assignment[var] == TRUE
        return progressed

    def _components(self, unfounded: List[Atom]) -> List[Dict[Atom, None]]:
        """Connected components of the positive support graph within the
        unfounded set (union-find), as insertion-ordered atom sets: the
        clauses they yield must not depend on the hash seed."""
        parent: Dict[Atom, Atom] = {a: a for a in unfounded}

        def find(a: Atom) -> Atom:
            while parent[a] is not a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        def union(a: Atom, b: Atom) -> None:
            ra, rb = find(a), find(b)
            if ra is not rb:
                parent[ra] = rb

        for atom in unfounded:
            for support in self.translator.supports.get(atom, ()):
                for dep in support.pos_atoms:
                    if dep in parent:
                        union(atom, dep)
        groups: Dict[Atom, Dict[Atom, None]] = {}
        for atom in unfounded:
            groups.setdefault(find(atom), {})[atom] = None
        return list(groups.values())
