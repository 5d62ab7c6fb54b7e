"""Abstract syntax for the ASP dialect used by the concretizer.

This is the clingo fragment Spack's concretizer needs (and that the
paper's Figures 3–4 are written in):

* terms: integers, symbolic constants, double-quoted strings, variables,
  and uninterpreted functions (``node("example")``)
* normal rules ``head :- body.`` with negation-as-failure (``not a``)
* integrity constraints ``:- body.``
* cardinality-bounded choice rules ``lo { elem : cond ; ... } hi :- body.``
* builtin comparisons ``= != < <= > >=``
* ``#minimize { weight@priority, t1, ... : body }.``

Ground terms have a total order (integers < symbols/strings,
lexicographic within kinds) so comparisons behave deterministically.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Term",
    "Integer",
    "Symbol",
    "String",
    "Variable",
    "Function",
    "Arith",
    "Interval",
    "Atom",
    "Literal",
    "Comparison",
    "ChoiceElement",
    "ChoiceHead",
    "Rule",
    "MinimizeElement",
    "Program",
    "term_sort_key",
]


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------
class Term:
    """Base class for all terms."""

    __slots__ = ()

    @property
    def is_ground(self) -> bool:
        raise NotImplementedError

    def substitute(self, binding: dict) -> "Term":
        raise NotImplementedError

    def variables(self) -> Iterable[str]:
        return ()


class Integer(Term):
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = int(value)

    is_ground = True

    def substitute(self, binding: dict) -> "Term":
        return self

    def __eq__(self, other):
        return isinstance(other, Integer) and self.value == other.value

    def __hash__(self):
        return hash(("int", self.value))

    def __repr__(self):
        return str(self.value)


class Symbol(Term):
    """A lowercase symbolic constant, e.g. ``mpich``."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    is_ground = True

    def substitute(self, binding: dict) -> "Term":
        return self

    def __eq__(self, other):
        return isinstance(other, Symbol) and self.name == other.name

    def __hash__(self):
        return hash(("sym", self.name))

    def __repr__(self):
        return self.name


class String(Term):
    """A double-quoted string constant, e.g. ``"example"``."""

    __slots__ = ("value",)

    def __init__(self, value: str):
        self.value = value

    is_ground = True

    def substitute(self, binding: dict) -> "Term":
        return self

    def __eq__(self, other):
        return isinstance(other, String) and self.value == other.value

    def __hash__(self):
        return hash(("str", self.value))

    def __repr__(self):
        return f'"{self.value}"'


class Variable(Term):
    """An uppercase logic variable."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    is_ground = False

    def substitute(self, binding: dict) -> "Term":
        return binding.get(self.name, self)

    def variables(self) -> Iterable[str]:
        yield self.name

    def __eq__(self, other):
        return isinstance(other, Variable) and self.name == other.name

    def __hash__(self):
        return hash(("var", self.name))

    def __repr__(self):
        return self.name


class Function(Term):
    """An uninterpreted function term, e.g. ``node("example")``."""

    __slots__ = ("name", "args", "_ground", "_hash")

    def __init__(self, name: str, args: Sequence[Term]):
        self.args = tuple(args)
        self.name = name
        self._ground = all(a.is_ground for a in self.args)
        self._hash = None

    @property
    def is_ground(self) -> bool:
        return self._ground

    def substitute(self, binding: dict) -> "Term":
        if self._ground:
            return self
        return Function(self.name, [a.substitute(binding) for a in self.args])

    def variables(self) -> Iterable[str]:
        for a in self.args:
            yield from a.variables()

    def __eq__(self, other):
        return (
            isinstance(other, Function)
            and self.name == other.name
            and self.args == other.args
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(("fn", self.name, self.args))
        return self._hash

    def __getstate__(self):
        # str hashes are salted per process (PYTHONHASHSEED): a memoized
        # hash must never travel through pickle (the ground-program disk
        # cache), or unpickled terms poison dict/set lookups against
        # natively built equal terms in the consuming process
        return (self.name, self.args)

    def __setstate__(self, state):
        self.name, self.args = state
        self._ground = all(a.is_ground for a in self.args)
        self._hash = None

    def __repr__(self):
        return f"{self.name}({','.join(map(repr, self.args))})"


class Arith(Term):
    """An arithmetic expression over integer terms: ``X + 1``, ``W * 2``.

    Substitution reduces the expression to an :class:`Integer` as soon
    as both operands are ground (clingo evaluates arithmetic during
    grounding).  Division is integer division; division by zero is a
    grounding-time error.
    """

    __slots__ = ("op", "left", "right")

    OPS = ("+", "-", "*", "/")

    def __init__(self, op: str, left: Term, right: Term):
        if op not in self.OPS:
            raise ValueError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    @property
    def is_ground(self) -> bool:
        # a ground Arith would have been reduced already; treat any
        # remaining expression as non-ground for safety
        return False

    def _reduce(self, left: Term, right: Term) -> Term:
        if isinstance(left, Integer) and isinstance(right, Integer):
            a, b = left.value, right.value
            if self.op == "+":
                return Integer(a + b)
            if self.op == "-":
                return Integer(a - b)
            if self.op == "*":
                return Integer(a * b)
            if b == 0:
                raise ZeroDivisionError(f"division by zero in {self!r}")
            return Integer(a // b)
        return Arith(self.op, left, right)

    def substitute(self, binding: dict) -> "Term":
        return self._reduce(
            self.left.substitute(binding), self.right.substitute(binding)
        )

    def variables(self) -> Iterable[str]:
        yield from self.left.variables()
        yield from self.right.variables()

    def __eq__(self, other):
        return (
            isinstance(other, Arith)
            and self.op == other.op
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self):
        return hash((self.op, self.left, self.right))

    def __repr__(self):
        return f"({self.left!r} {self.op} {self.right!r})"


class Interval(Term):
    """A clingo integer interval ``lo..hi``; expands in fact positions."""

    __slots__ = ("low", "high")

    def __init__(self, low: Term, high: Term):
        self.low = low
        self.high = high

    @property
    def is_ground(self) -> bool:
        return False  # intervals must be expanded, never matched

    def substitute(self, binding: dict) -> "Term":
        return Interval(self.low.substitute(binding), self.high.substitute(binding))

    def variables(self) -> Iterable[str]:
        yield from self.low.variables()
        yield from self.high.variables()

    def expand(self) -> List[Integer]:
        if not (isinstance(self.low, Integer) and isinstance(self.high, Integer)):
            raise ValueError(f"cannot expand non-ground interval {self!r}")
        return [Integer(v) for v in range(self.low.value, self.high.value + 1)]

    def __eq__(self, other):
        return (
            isinstance(other, Interval)
            and self.low == other.low
            and self.high == other.high
        )

    def __hash__(self):
        return hash(("interval", self.low, self.high))

    def __repr__(self):
        return f"{self.low!r}..{self.high!r}"


def term_sort_key(term: Term):
    """Total order on ground terms: integers < strings/symbols < functions."""
    if isinstance(term, Integer):
        return (0, term.value)
    if isinstance(term, (Symbol,)):
        return (1, term.name)
    if isinstance(term, String):
        return (1, term.value)
    if isinstance(term, Function):
        return (2, term.name, tuple(term_sort_key(a) for a in term.args))
    raise TypeError(f"cannot order non-ground term {term!r}")


# ---------------------------------------------------------------------------
# Atoms and literals
# ---------------------------------------------------------------------------
class Atom:
    """A predicate applied to terms: ``attr("version", node("x"), "1.0")``."""

    __slots__ = ("predicate", "args", "_ground", "_hash")

    def __init__(self, predicate: str, args: Sequence[Term] = ()):
        self.predicate = predicate
        self.args = tuple(args)
        self._ground = all(a.is_ground for a in self.args)
        self._hash = None

    @property
    def is_ground(self) -> bool:
        return self._ground

    @property
    def signature(self) -> Tuple[str, int]:
        return (self.predicate, len(self.args))

    def substitute(self, binding: dict) -> "Atom":
        if self._ground:
            return self
        return Atom(self.predicate, [a.substitute(binding) for a in self.args])

    def variables(self) -> Iterable[str]:
        for a in self.args:
            yield from a.variables()

    def __eq__(self, other):
        return (
            isinstance(other, Atom)
            and self.predicate == other.predicate
            and self.args == other.args
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.predicate, self.args))
        return self._hash

    def __getstate__(self):
        # see Function.__getstate__: never pickle the memoized hash
        return (self.predicate, self.args)

    def __setstate__(self, state):
        self.predicate, self.args = state
        self._ground = all(a.is_ground for a in self.args)
        self._hash = None

    def __repr__(self):
        if not self.args:
            return self.predicate
        return f"{self.predicate}({','.join(map(repr, self.args))})"


class Literal:
    """A possibly-negated atom occurrence in a rule body."""

    __slots__ = ("atom", "positive")

    def __init__(self, atom: Atom, positive: bool = True):
        self.atom = atom
        self.positive = positive

    def substitute(self, binding: dict) -> "Literal":
        return Literal(self.atom.substitute(binding), self.positive)

    def variables(self) -> Iterable[str]:
        return self.atom.variables()

    def __eq__(self, other):
        return (
            isinstance(other, Literal)
            and self.positive == other.positive
            and self.atom == other.atom
        )

    def __hash__(self):
        return hash((self.positive, self.atom))

    def __repr__(self):
        return repr(self.atom) if self.positive else f"not {self.atom!r}"


COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")


class Comparison:
    """A builtin comparison between two terms, evaluated at ground time."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Term, right: Term):
        if op not in COMPARISON_OPS:
            raise ValueError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def substitute(self, binding: dict) -> "Comparison":
        return Comparison(
            self.op, self.left.substitute(binding), self.right.substitute(binding)
        )

    def variables(self) -> Iterable[str]:
        yield from self.left.variables()
        yield from self.right.variables()

    @property
    def is_ground(self) -> bool:
        return self.left.is_ground and self.right.is_ground

    def evaluate(self) -> bool:
        """Evaluate a ground comparison using the term total order."""
        if not self.is_ground:
            raise ValueError(f"cannot evaluate non-ground comparison {self!r}")
        if self.op == "=":
            return self.left == self.right
        if self.op == "!=":
            return self.left != self.right
        lk, rk = term_sort_key(self.left), term_sort_key(self.right)
        if self.op == "<":
            return lk < rk
        if self.op == "<=":
            return lk <= rk
        if self.op == ">":
            return lk > rk
        return lk >= rk

    def __repr__(self):
        return f"{self.left!r} {self.op} {self.right!r}"


BodyElement = Union[Literal, Comparison]


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------
class ChoiceElement:
    """One ``atom : cond1, cond2`` element inside a choice head."""

    __slots__ = ("atom", "condition")

    def __init__(self, atom: Atom, condition: Sequence[BodyElement] = ()):
        self.atom = atom
        self.condition = tuple(condition)

    def substitute(self, binding: dict) -> "ChoiceElement":
        return ChoiceElement(
            self.atom.substitute(binding),
            [c.substitute(binding) for c in self.condition],
        )

    def __repr__(self):
        if self.condition:
            return f"{self.atom!r} : {', '.join(map(repr, self.condition))}"
        return repr(self.atom)


class ChoiceHead:
    """``lo { elements } hi`` — bounds may be None (unbounded)."""

    __slots__ = ("elements", "lower", "upper")

    def __init__(
        self,
        elements: Sequence[ChoiceElement],
        lower: Optional[int] = None,
        upper: Optional[int] = None,
    ):
        self.elements = tuple(elements)
        self.lower = lower
        self.upper = upper

    def substitute(self, binding: dict) -> "ChoiceHead":
        return ChoiceHead(
            [e.substitute(binding) for e in self.elements], self.lower, self.upper
        )

    def __repr__(self):
        lo = f"{self.lower} " if self.lower is not None else ""
        hi = f" {self.upper}" if self.upper is not None else ""
        return f"{lo}{{ {'; '.join(map(repr, self.elements))} }}{hi}"


class Rule:
    """A normal rule, constraint (head None), or choice rule."""

    __slots__ = ("head", "body")

    def __init__(
        self,
        head: Union[Atom, ChoiceHead, None],
        body: Sequence[BodyElement] = (),
    ):
        self.head = head
        self.body = tuple(body)

    @property
    def is_fact(self) -> bool:
        return isinstance(self.head, Atom) and not self.body and self.head.is_ground

    @property
    def is_constraint(self) -> bool:
        return self.head is None

    def variables(self) -> Iterable[str]:
        if isinstance(self.head, Atom):
            yield from self.head.variables()
        elif isinstance(self.head, ChoiceHead):
            for e in self.head.elements:
                yield from e.atom.variables()
                for c in e.condition:
                    yield from c.variables()
        for b in self.body:
            yield from b.variables()

    def __repr__(self):
        head = "" if self.head is None else repr(self.head)
        if not self.body:
            return f"{head}."
        return f"{head} :- {', '.join(map(repr, self.body))}."


class MinimizeElement:
    """One ``weight@priority, terms : body`` element of a #minimize."""

    __slots__ = ("weight", "priority", "terms", "body")

    def __init__(
        self,
        weight: Term,
        priority: int,
        terms: Sequence[Term],
        body: Sequence[BodyElement],
    ):
        self.weight = weight
        self.priority = priority
        self.terms = tuple(terms)
        self.body = tuple(body)

    def substitute(self, binding: dict) -> "MinimizeElement":
        return MinimizeElement(
            self.weight.substitute(binding),
            self.priority,
            [t.substitute(binding) for t in self.terms],
            [b.substitute(binding) for b in self.body],
        )

    def variables(self) -> Iterable[str]:
        yield from self.weight.variables()
        for t in self.terms:
            yield from t.variables()
        for b in self.body:
            yield from b.variables()

    def __repr__(self):
        terms = ",".join(map(repr, (self.weight, *self.terms)))
        body = ", ".join(map(repr, self.body))
        return f"#minimize {{ {terms}@{self.priority} : {body} }}."


class Program:
    """A collection of rules and minimize statements."""

    def __init__(self):
        self.rules: List[Rule] = []
        self.minimizes: List[MinimizeElement] = []

    def add_rule(self, rule: Rule) -> None:
        self.rules.append(rule)

    def add_fact(self, atom: Atom) -> None:
        if not atom.is_ground:
            raise ValueError(f"facts must be ground: {atom!r}")
        self.rules.append(Rule(atom))

    def add_minimize(self, element: MinimizeElement) -> None:
        self.minimizes.append(element)

    def extend(self, other: "Program") -> None:
        self.rules.extend(other.rules)
        self.minimizes.extend(other.minimizes)

    def __len__(self) -> int:
        return len(self.rules)

    def __repr__(self):
        return f"<Program: {len(self.rules)} rules, {len(self.minimizes)} minimize elements>"
