"""Control-style façade over the ASP pipeline (the clingo stand-in).

Typical use::

    ctl = Control()
    ctl.add('node("example").')
    ctl.load("concretize.lp")
    ctl.ground()
    result = ctl.solve()
    if result.satisfiable:
        for atom in result.model.by_predicate("attr"):
            ...
"""

from __future__ import annotations

import logging
from typing import Callable, Dict, List, Optional, Set

from ..obs import Span, trace
from .grounder import Grounder
from .optimize import Optimizer
from .parser import parse_program
from .syntax import Atom, Program, Rule
from .translate import Translator

__all__ = ["Control", "Model", "SolveResult"]

logger = logging.getLogger(__name__)


class Model:
    """A stable model: a set of ground atoms with query helpers."""

    def __init__(self, atoms: Set[Atom]):
        self.atoms = atoms
        self._by_pred: Optional[Dict[str, List[Atom]]] = None

    def by_predicate(self, predicate: str) -> List[Atom]:
        if self._by_pred is None:
            index: Dict[str, List[Atom]] = {}
            for atom in self.atoms:
                index.setdefault(atom.predicate, []).append(atom)
            self._by_pred = index
        return self._by_pred.get(predicate, [])

    def holds(self, atom: Atom) -> bool:
        return atom in self.atoms

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self):
        return iter(self.atoms)

    def __repr__(self):
        return f"<Model {len(self.atoms)} atoms>"


class SolveResult:
    """Outcome of :meth:`Control.solve`, with cost and timing stats."""

    def __init__(
        self,
        model: Optional[Model],
        cost: Dict[int, int],
        stats: Dict[str, float],
    ):
        self.model = model
        self.cost = cost
        self.stats = stats

    @property
    def satisfiable(self) -> bool:
        return self.model is not None

    def __repr__(self):
        status = "SAT" if self.satisfiable else "UNSAT"
        return f"<SolveResult {status} cost={self.cost}>"


class Control:
    """Accumulates program text/facts, grounds, and solves."""

    def __init__(self):
        self.program = Program()
        self._ground_program = None
        self._translator: Optional[Translator] = None
        self._ground_span: Optional[Span] = None

    # -- input -------------------------------------------------------------
    def add(self, text: str) -> None:
        """Add ASP source text to the program."""
        parse_program(text, into=self.program)

    def add_fact(self, atom: Atom) -> None:
        self.program.add_fact(atom)

    def add_rule(self, rule: Rule) -> None:
        self.program.add_rule(rule)

    def load(self, path) -> None:
        with open(path, "r", encoding="utf-8") as handle:
            self.add(handle.read())

    # -- pipeline ------------------------------------------------------------
    def ground(self) -> None:
        """Instantiate the program (must precede :meth:`solve`)."""
        with trace.span("asp.ground") as sp:
            self._ground_program = Grounder(self.program).ground()
            sp.set(**self._ground_program.stats())
        self._ground_span = sp
        logger.debug(
            "grounded in %.4fs: %s", sp.duration, self._ground_program.stats()
        )

    def use_ground_program(self, ground_program) -> None:
        """Inject an externally produced :class:`GroundProgram` (a
        ground-cache hit); :meth:`solve` will skip grounding entirely
        and no ``asp.ground`` span opens, so the cached path provably
        spends zero ground time."""
        self._ground_program = ground_program
        self._ground_span = None

    @property
    def _ground_time(self) -> float:
        """Backward-compatible accessor: a thin read of the ground span."""
        return self._ground_span.duration if self._ground_span is not None else 0.0

    def solve(
        self,
        on_model: Optional[Callable[[Model], None]] = None,
    ) -> SolveResult:
        """Ground (if needed), translate, and find an optimal stable model."""
        if self._ground_program is None:
            self.ground()
        with trace.span("asp.translate") as translate_span:
            translator = Translator(self._ground_program)
            translate_span.set(
                atoms=len(translator.atom_var),
                vars=translator.solver.stats()["vars"],
                clauses=translator.solver.stats()["clauses"],
            )
        self._translator = translator

        with trace.span("asp.solve") as solve_span:
            optimizer = Optimizer(translator)
            callback = None
            if on_model is not None:
                callback = lambda atoms: on_model(Model(atoms))  # noqa: E731
            outcome = optimizer.optimize(on_model=callback)
            sat_stats = translator.solver.stats()
            solve_span.set(
                models=outcome.models_seen,
                decisions=sat_stats["decisions"],
                conflicts=sat_stats["conflicts"],
                loop_formulas=optimizer.finder.loop_formulas_added,
                finder_calls=optimizer.finder.calls,
            )

        stats = {
            "ground_time": self._ground_time,
            "translate_time": translate_span.duration,
            "solve_time": solve_span.duration,
            "models_seen": outcome.models_seen,
            "finder_calls": optimizer.finder.calls,
            "loop_formulas": optimizer.finder.loop_formulas_added,
            "atoms": len(translator.atom_var),
            **{f"ground_{k}": v for k, v in self._ground_program.stats().items()},
            **{f"sat_{k}": v for k, v in sat_stats.items()},
        }
        logger.debug(
            "solved: %s models, %s conflicts, %.4fs",
            outcome.models_seen, sat_stats["conflicts"], solve_span.duration,
        )
        model = Model(outcome.model) if outcome.model is not None else None
        return SolveResult(model, outcome.cost, stats)

    # -- introspection -----------------------------------------------------
    @property
    def ground_stats(self) -> Dict[str, int]:
        if self._ground_program is None:
            return {}
        return self._ground_program.stats()
