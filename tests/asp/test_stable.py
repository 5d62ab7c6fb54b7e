"""Stable-model semantics: completion, loops, choices — vs brute force."""

import itertools
import random

import pytest

from repro.asp.grounder import Grounder
from repro.asp.parser import parse_program
from repro.asp.stable import StableModelFinder
from repro.asp.translate import Translator


def solve_text(text):
    program = parse_program(text)
    translator = Translator(Grounder(program).ground())
    finder = StableModelFinder(translator)
    model = finder.solve()
    if model is None:
        return None, finder
    return {repr(a) for a in model}, finder


class TestDefiniteness:
    def test_facts_only(self):
        model, _ = solve_text("a. b.")
        assert model == {"a", "b"}

    def test_chaining(self):
        model, _ = solve_text("a. b :- a. c :- b.")
        assert model == {"a", "b", "c"}

    def test_underivable_atom_false(self):
        model, _ = solve_text("a. b :- c.")
        assert model == {"a"}


class TestNegation:
    def test_naf_basic(self):
        model, _ = solve_text("a :- not b.")
        assert model == {"a"}

    def test_even_negation_two_models(self):
        # a :- not b. b :- not a. has two stable models {a}, {b}
        model, _ = solve_text("a :- not b. b :- not a.")
        assert model in ({"a"}, {"b"})

    def test_odd_negation_loop_unsat(self):
        # a :- not a. has no stable model
        model, _ = solve_text("a :- not a.")
        assert model is None

    def test_constraint_filters(self):
        model, _ = solve_text("a :- not b. b :- not a. :- a.")
        assert model == {"b"}


class TestPositiveLoops:
    def test_mutual_support_unfounded(self):
        # a and b only support each other → both false
        model, _ = solve_text("a :- b. b :- a.")
        assert model == set()

    def test_loop_with_constraint_unsat(self):
        model, _ = solve_text("a :- b. b :- a. :- not a.")
        assert model is None

    def test_loop_with_external_support(self):
        model, finder = solve_text("a :- b. b :- a. { s }. a :- s. :- not b.")
        assert model == {"a", "b", "s"}

    def test_long_cycle(self):
        model, _ = solve_text("a :- b. b :- c. c :- a. :- not c.")
        assert model is None

    def test_two_disjoint_loops(self):
        model, _ = solve_text(
            "a :- b. b :- a. c :- d. d :- c. { s }. c :- s. :- not d."
        )
        assert model == {"c", "d", "s"}


class TestChoices:
    def test_free_choice(self):
        model, _ = solve_text("{ a }.")
        assert model in (set(), {"a"})

    def test_choice_forced_by_constraint(self):
        model, _ = solve_text("{ a }. :- not a.")
        assert model == {"a"}

    def test_exactly_one(self):
        model, _ = solve_text("opt(1). opt(2). 1 { pick(X) : opt(X) } 1.")
        picks = {a for a in model if a.startswith("pick")}
        assert len(picks) == 1

    def test_at_most_one(self):
        model, _ = solve_text("opt(1). opt(2). { pick(X) : opt(X) } 1.")
        picks = {a for a in model if a.startswith("pick")}
        assert len(picks) <= 1

    def test_lower_bound_two(self):
        model, _ = solve_text("opt(1). opt(2). opt(3). 2 { pick(X) : opt(X) }.")
        picks = {a for a in model if a.startswith("pick")}
        assert len(picks) >= 2

    def test_unmeetable_lower_bound_blocks_body(self):
        # body must be false if the bound cannot be met → UNSAT with fact body
        model, _ = solve_text("t. 1 { pick(X) : opt(X) } 1 :- t.")
        assert model is None

    def test_choice_body_gate(self):
        model, _ = solve_text("{ a } :- missing.")
        assert model == set()

    def test_choice_atom_needs_support(self):
        # `pick` can only be true when the choice body holds
        model, _ = solve_text("{ a } :- missing. :- not a.")
        assert model is None

    def test_conditional_element_gated(self):
        # q(2) impossible → pick(2) not available
        model, _ = solve_text("q(1). 1 { pick(X) : q(X) } 1. :- pick(2).")
        assert model == {"q(1)", "pick(1)"}


def brute_force_stable(atom_names, rules, choice_atoms, constraints):
    """Reference implementation of stable models for propositional
    normal programs + free choice atoms."""
    models = []
    for bits in itertools.product([0, 1], repeat=len(atom_names)):
        m = {a for a, b in zip(atom_names, bits) if b}
        violated = False
        for head, pos, neg in rules:
            if set(pos) <= m and not (set(neg) & m) and head not in m:
                violated = True
                break
        for pos, neg in constraints:
            if set(pos) <= m and not (set(neg) & m):
                violated = True
                break
        if violated:
            continue
        derived = set()
        changed = True
        while changed:
            changed = False
            for head, pos, neg in rules:
                if (
                    head in m
                    and head not in derived
                    and set(pos) <= derived
                    and not (set(neg) & m)
                ):
                    derived.add(head)
                    changed = True
            for c in choice_atoms:
                if c in m and c not in derived:
                    derived.add(c)
                    changed = True
        if derived == m:
            models.append(frozenset(m))
    return set(models)


class TestFuzzVsBruteForce:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_programs(self, seed):
        rng = random.Random(seed)
        names = ["a", "b", "c", "d", "e"]
        for _ in range(25):
            rules = []
            lines = ["{ a }.", "{ b }."]
            for _ in range(rng.randint(1, 7)):
                head = rng.choice(names[2:])
                pos = rng.sample(names, rng.randint(0, 2))
                neg = rng.sample(names, rng.randint(0, 1))
                body = pos + [f"not {x}" for x in neg]
                lines.append(
                    f"{head} :- {', '.join(body)}." if body else f"{head}."
                )
                rules.append((head, pos, neg))
            constraints = []
            if rng.random() < 0.6:
                neg = [rng.choice(names)]
                lines.append(f":- not {neg[0]}.")
                constraints.append(([], neg))
            expected = brute_force_stable(names, rules, {"a", "b"}, constraints)
            model, _ = solve_text("\n".join(lines))
            if model is None:
                assert not expected, f"engine UNSAT but brute force found {expected}"
            else:
                assert frozenset(model) in expected, (
                    f"model {model} not stable; expected one of {expected}"
                )


def brute_force_optimum(names, rules, choices, constraints, minimizes):
    """Stable models of a propositional program with choice rules, and
    the least cost vector among them (highest priority first).

    ``rules``: ``(head, pos, neg)``; ``choices``: ``(atom, pos, neg)``
    for ``{ atom } :- pos, not neg.``; ``constraints``: ``(pos, neg)``;
    ``minimizes``: ``(weight, priority, term, pos, neg)``, summed over
    distinct ``(weight, priority, term)`` tuples as clingo does.
    """

    def holds(pos, neg, true):
        return set(pos) <= true and not (set(neg) & true)

    priorities = sorted({p for _, p, _, _, _ in minimizes}, reverse=True)
    models = {}
    for bits in itertools.product([0, 1], repeat=len(names)):
        m = {a for a, b in zip(names, bits) if b}
        if any(holds(pos, neg, m) and head not in m for head, pos, neg in rules):
            continue
        if any(holds(pos, neg, m) for pos, neg in constraints):
            continue
        derived = set()
        changed = True
        while changed:
            changed = False
            for head, pos, neg in rules + choices:
                if (
                    head in m
                    and head not in derived
                    and set(pos) <= derived
                    and not (set(neg) & m)
                ):
                    derived.add(head)
                    changed = True
        if derived != m:
            continue
        tuples = {(w, p, t) for w, p, t, pos, neg in minimizes if holds(pos, neg, m)}
        models[frozenset(m)] = tuple(
            sum(w for w, q, _ in tuples if q == p) for p in priorities
        )
    best = min(models.values()) if models else None
    return models, best, priorities


def random_optimization_program(rng):
    """Rules over a-f with positive loops, choice rules with bodies,
    constraints and a multi-level ``#minimize``."""
    names = ["a", "b", "c", "d", "e", "f"]
    lines, rules, choices, constraints, minimizes = [], [], [], [], []

    def body(pos, neg):
        return ", ".join(pos + [f"not {x}" for x in neg])

    for _ in range(rng.randint(1, 3)):
        atom = rng.choice(names)
        pos = rng.sample(names, rng.randint(0, 1))
        neg = rng.sample(names, rng.randint(0, 1))
        lines.append(f"{{ {atom} }} :- {body(pos, neg)}." if pos or neg
                     else f"{{ {atom} }}.")
        choices.append((atom, pos, neg))
    loop = rng.sample(names, rng.randint(2, 3))
    for head, dep in zip(loop, loop[1:] + loop[:1]):
        lines.append(f"{head} :- {dep}.")
        rules.append((head, [dep], []))
    for _ in range(rng.randint(1, 5)):
        head = rng.choice(names)
        pos = rng.sample(names, rng.randint(0, 2))
        neg = rng.sample(names, rng.randint(0, 1))
        lines.append(f"{head} :- {body(pos, neg)}." if pos or neg else f"{head}.")
        rules.append((head, pos, neg))
    if rng.random() < 0.5:
        pos = rng.sample(names, rng.randint(0, 1))
        neg = [rng.choice(names)] if not pos else []
        lines.append(f":- {body(pos, neg)}.")
        constraints.append((pos, neg))
    for _ in range(rng.randint(1, 4)):
        weight, priority = rng.randint(1, 5), rng.randint(0, 2)
        term = rng.choice(["t1", "t2"])
        pos = rng.sample(names, rng.randint(1, 2))
        neg = rng.sample(names, rng.randint(0, 1))
        lines.append(f"#minimize {{ {weight}@{priority}, {term} : {body(pos, neg)} }}.")
        minimizes.append((weight, priority, term, pos, neg))
    return names, "\n".join(lines), rules, choices, constraints, minimizes


class TestOptimizeVsBruteForce:
    """The optimizer's cost vector is the least over every stable model,
    and its model is one of them, on programs with positive loops."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_programs(self, seed):
        from repro.asp.api import Control

        rng = random.Random(1000 + seed)
        for _ in range(25):
            names, text, rules, choices, constraints, minimizes = (
                random_optimization_program(rng)
            )
            models, best, priorities = brute_force_optimum(
                names, rules, choices, constraints, minimizes
            )
            ctl = Control()
            ctl.add(text)
            result = ctl.solve()
            if not result.satisfiable:
                assert not models, f"engine UNSAT, brute force: {models}\n{text}"
                continue
            found = frozenset(repr(a) for a in result.model)
            assert found in models, f"model {set(found)} not stable\n{text}"
            cost = tuple(result.cost.get(p, 0) for p in priorities)
            assert cost == best == models[found], f"cost {cost} != {best}\n{text}"


class TestLoopAtoms:
    def test_acyclic_program_has_no_loop_atoms(self):
        model, finder = solve_text("a. b :- a. { c } :- b. d :- c, not e. e :- not d.")
        assert finder.loop_atoms == []
        assert model is not None

    def test_unsupported_loop_still_repaired(self):
        program = parse_program("a :- b. b :- a. { s }. a :- s. :- not b.")
        translator = Translator(Grounder(program).ground())
        finder = StableModelFinder(translator)
        assert sorted(map(repr, finder.loop_atoms)) == ["a", "b"]
        s = next(v for atom, v in translator.atom_var.items() if repr(atom) == "s")
        # without s the only supported model makes a and b support each
        # other: the loop is unfounded and its formula proves UNSAT
        assert finder.solve([-s]) is None
        assert finder.loop_formulas_added == 2
        assert {repr(a) for a in finder.solve()} == {"a", "b", "s"}

    def test_repair_without_progress_raises(self, monkeypatch):
        monkeypatch.setattr(
            StableModelFinder, "_add_loop_formulas", lambda self, u, a: False
        )
        with pytest.raises(RuntimeError, match="loop repair"):
            solve_text("{ s }. a :- s. a :- b. b :- a. :- not b. :- s.")
