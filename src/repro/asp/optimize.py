"""Lexicographic ``#minimize`` optimization over stable models.

clingo semantics: higher ``@priority`` levels dominate; within a level
the objective is the sum of weights of satisfied minimize elements.

Strategy: model-guided bound strengthening.  For each priority from
highest to lowest:

1. take the cost of the incumbent model at this priority;
2. build (once, with cross-bound node sharing) a pseudo-Boolean
   "budget" circuit whose root literal *assumes* ``Σ wᵢxᵢ ≤ k``;
3. repeatedly solve under the assumption ``cost ≤ incumbent - 1``; each
   SAT answer lowers the incumbent, UNSAT proves optimality;
4. permanently assert the optimal bound and recurse to the next level;
   the incumbent already meets it, so it carries over, together with
   the solver assignment its costs are read from, with no re-solve.

The PB circuit uses the standard BDD/DP decomposition memoized on
``(index, residual_budget)`` with budgets clamped to suffix sums, so
successive bounds share most of their structure.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from .sat import TRUE
from .stable import StableModelFinder
from .syntax import Atom
from .translate import Translator

__all__ = ["Optimizer", "OptimizeResult"]


class OptimizeResult:
    """The outcome of an optimization run."""

    __slots__ = ("model", "cost", "models_seen", "proven_optimal")

    def __init__(
        self,
        model: Optional[Set[Atom]],
        cost: Dict[int, int],
        models_seen: int,
        proven_optimal: bool,
    ):
        self.model = model
        self.cost = cost
        self.models_seen = models_seen
        self.proven_optimal = proven_optimal

    @property
    def satisfiable(self) -> bool:
        return self.model is not None


class _PBBudget:
    """Assumable pseudo-Boolean ``≤ k`` circuit for one objective level."""

    def __init__(self, translator: Translator, terms: Sequence[Tuple[int, int]]):
        self.solver = translator.solver
        # Normalize: drop zero weights, sort descending for better sharing.
        self.terms = sorted(
            ((w, v) for w, v in terms if w != 0), key=lambda t: -t[0]
        )
        if any(w < 0 for w, _ in self.terms):
            raise ValueError("negative minimize weights are not supported")
        self.suffix_sums: List[int] = [0] * (len(self.terms) + 1)
        for i in range(len(self.terms) - 1, -1, -1):
            self.suffix_sums[i] = self.suffix_sums[i + 1] + self.terms[i][0]
        self._nodes: Dict[Tuple[int, int], int] = {}
        self._const_true: Optional[int] = None

    def root(self, bound: int) -> Optional[int]:
        """A literal that, assumed true, enforces ``Σ ≤ bound``.

        Returns None when the bound is trivially satisfied (no
        assumption needed).
        """
        if bound >= self.suffix_sums[0]:
            return None
        return self._node(0, bound)

    def _node(self, i: int, budget: int) -> int:
        budget = min(budget, self.suffix_sums[i])  # clamp for sharing
        if budget < 0:
            return -self._true()  # impossible: assuming it forces UNSAT
        if budget == self.suffix_sums[i]:
            return self._true()
        key = (i, budget)
        cached = self._nodes.get(key)
        if cached is not None:
            return cached
        weight, x = self.terms[i]
        var = self.solver.new_var()
        hi = self._node(i + 1, budget - weight)  # x true: spend weight
        lo = self._node(i + 1, budget)  # x false
        # var ∧ x → hi ;  var ∧ ¬x → lo
        self.solver.add_clause([-var, -x, hi])
        self.solver.add_clause([-var, x, lo])
        self._nodes[key] = var
        return var

    def _true(self) -> int:
        if self._const_true is None:
            self._const_true = self.solver.new_var()
            self.solver.add_clause([self._const_true])
        return self._const_true


class Optimizer:
    """Runs lexicographic minimization on top of a StableModelFinder."""

    def __init__(self, translator: Translator):
        self.translator = translator
        self.finder = StableModelFinder(translator)

    def optimize(
        self,
        on_model=None,
        base_assumptions: Sequence[int] = (),
    ) -> OptimizeResult:
        models_seen = 0
        model = self.finder.solve(list(base_assumptions))
        if model is None:
            return OptimizeResult(None, {}, 0, True)
        models_seen += 1
        if on_model is not None:
            on_model(model)

        # The incumbent keeps the solver assignment it was found in: its
        # costs are sums over indicator variables (Tseitin bodies), and
        # the assignment meets every bound frozen so far, so it stays the
        # incumbent of the next level with no re-solve.
        assumptions: List[int] = list(base_assumptions)
        best_model = model
        best_assignment = self.translator.solver.model()
        priorities = sorted(self.translator.objectives, reverse=True)
        for priority in priorities:
            terms = self.translator.objectives[priority]
            budget = _PBBudget(self.translator, terms)
            best_cost = _cost(best_assignment, terms)
            # Bracketed descent: probe the midpoint of [floor, best).
            # A SAT probe may overshoot downward (the model's true cost
            # bounds it); an UNSAT probe raises the floor.  Converges in
            # O(log range) solves instead of one solve per cost step —
            # essential when an objective spans many values (e.g. 100
            # provider weights in the Figure-7 workload).
            floor = 0
            while best_cost > floor:
                probe = (floor + best_cost - 1) // 2
                root = budget.root(probe)
                if root is None:
                    break  # bound is trivially met; cannot go below 0 sum
                candidate = self.finder.solve(assumptions + [root])
                if candidate is None:
                    floor = probe + 1
                    continue
                models_seen += 1
                assignment = self.translator.solver.model()
                new_cost = _cost(assignment, terms)
                assert new_cost < best_cost, "PB bound failed to strengthen"
                best_model = candidate
                best_assignment = assignment
                best_cost = new_cost
                if on_model is not None:
                    on_model(candidate)
            # Freeze this level at its optimum before descending.
            root = budget.root(best_cost)
            if root is not None:
                assumptions.append(root)

        cost = {
            priority: _cost(best_assignment, self.translator.objectives[priority])
            for priority in priorities
        }
        return OptimizeResult(best_model, cost, models_seen, True)


def _cost(assignment: Sequence[int], terms) -> int:
    """The objective value of ``terms`` under a solver assignment."""
    return sum(w for w, var in terms if assignment[var] == TRUE)
