"""Encoding audits: static checks over the generated ASP program.

Gamblin et al. note that encoding bugs — unsafe variables, rules that
can never fire, predicates nothing consumes — are the dominant failure
mode of logic-program concretizers.  These checkers assemble the same
program :class:`~repro.concretize.concretizer.Concretizer` would solve
(package encodings + request + can_splice rules + the logic files) and
analyze it *without grounding it*.

Codes:

* ASP001 (error) — a rule has unsafe variables: some variable is not
  bound by a positive body literal (or a ``V = expr`` assignment whose
  other side is bound).  The grounder raises ``GroundingError`` on
  these at solve time; the audit finds them before any solve.
* ASP002 (warning) — a predicate is derived but never consumed by any
  rule body, choice condition, or minimize element (dead derivation).
* ASP003 (warning) — a predicate is consumed but can never be derived
  by this program and is not a known solver input (dead consumption —
  usually a typo'd predicate name).
* ASP004 (warning) — a ``can_splice`` rule can never fire against the
  provided reusable specs: no installed spec satisfies its target.
* ENC001 (note) — a package or directive was skipped during program
  assembly because the encoder rejected it (the root cause is reported
  separately by the directive lints).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

from ..asp.syntax import (
    Atom,
    ChoiceHead,
    Comparison,
    Literal,
    Program,
    Rule,
    Variable,
)
from ..concretize.cansplice import CanSpliceCompiler
from ..concretize.concretizer import _load_logic
from ..concretize.encode import Encoder
from ..spec import Spec
from .diagnostics import Diagnostic, Severity
from .registry import checker

__all__ = ["build_audit_program", "LOGIC_FILES", "SOLVER_INPUTS", "SOLVER_OUTPUTS"]

#: the logic files the concretizer assembles for a splicing-enabled
#: solve under the paper's (new) encoding
LOGIC_FILES = ("concretize.lp", "reuse_new.lp", "splice.lp")

#: predicates supplied as facts by the encoders at solve time; any of
#: them may legitimately be absent for a given repo/request/cache, so
#: consuming them without a derivation in the program is not a bug
SOLVER_INPUTS = frozenset(
    {
        "root",
        "requested_node",
        "requested_dep",
        "pkg",
        "pkg_fact",
        "not_buildable",
        "virtual",
        "possible_provider",
        "provides_condition",
        "version_in_set",
        "known_os",
        "known_target",
        "default_os",
        "default_target",
        # reuse inputs: only present when a cache/store contributes specs
        "installed_hash",
        "hash_attr",
        "imposed_constraint",
        # derived per-directive: absent when a repo declares none
        "condition_holds",
        "can_splice",
    }
)

#: predicates that ARE the solver's answer — the model extractor reads
#: them, so deriving them without an in-program consumer is expected
SOLVER_OUTPUTS = frozenset({"attr"})


def build_audit_program(repo) -> Tuple[Program, List[Diagnostic]]:
    """Assemble the program a splicing solve over ``repo`` would use.

    Mirrors ``Concretizer.solve`` (package encodings, a request naming
    every package as a root, can_splice rules, the three logic files)
    but is fault-tolerant: a package or directive the encoder rejects
    is skipped with an ENC001 note instead of aborting, so one broken
    package does not hide findings in the rest of the repository.
    """
    notes: List[Diagnostic] = []
    encoder = Encoder(repo)
    encodable: List[str] = []
    for pkg_cls in repo:
        try:
            encoder.encode_package(pkg_cls)
            encodable.append(pkg_cls.name)
        except Exception as exc:
            notes.append(
                Diagnostic(
                    "ENC001",
                    Severity.NOTE,
                    f"package skipped during program assembly: {exc}",
                    package=pkg_cls.name,
                    checker="encoding.assembly",
                )
            )
    encoder.encode_virtuals(repo.virtual_names())
    try:
        encoder.encode_request([Spec(name) for name in encodable])
    except Exception as exc:
        notes.append(
            Diagnostic(
                "ENC001",
                Severity.NOTE,
                f"request encoding skipped during program assembly: {exc}",
                checker="encoding.assembly",
            )
        )

    compiler = CanSpliceCompiler(repo, encoder)
    splice_rules: List[Rule] = []
    for pkg_cls in repo:
        for index, decl in enumerate(pkg_cls.can_splice_decls):
            try:
                splice_rules.append(compiler.compile_decl(pkg_cls, decl, index))
            except Exception as exc:
                notes.append(
                    Diagnostic(
                        "ENC001",
                        Severity.NOTE,
                        f"can_splice rule skipped during program assembly: "
                        f"{exc}",
                        package=pkg_cls.name,
                        directive=f"can_splice[{index}]",
                        checker="encoding.assembly",
                    )
                )

    program = Program()
    encoder.into_program(program)
    for rule in splice_rules:
        program.add_rule(rule)
    for name in LOGIC_FILES:
        program.extend(_load_logic(name))
    return program, notes


# ---------------------------------------------------------------------------
# ASP001: variable safety (mirrors the grounder's runtime checks)
# ---------------------------------------------------------------------------
def _bound_variables(body: Sequence) -> Set[str]:
    """Variables bound by a rule body: positive literals bind their
    variables; ``V = expr`` comparisons bind one side once the other is
    fully bound (fixpoint, matching the grounder's assignment rule)."""
    bound: Set[str] = set()
    for element in body:
        if isinstance(element, Literal) and element.positive:
            bound.update(element.variables())
    changed = True
    while changed:
        changed = False
        for element in body:
            if not (isinstance(element, Comparison) and element.op == "="):
                continue
            left_vars = set(element.left.variables())
            right_vars = set(element.right.variables())
            if (
                isinstance(element.left, Variable)
                and element.left.name not in bound
                and right_vars <= bound
            ):
                bound.add(element.left.name)
                changed = True
            elif (
                isinstance(element.right, Variable)
                and element.right.name not in bound
                and left_vars <= bound
            ):
                bound.add(element.right.name)
                changed = True
    return bound


def _rule_display(rule: Rule, limit: int = 120) -> str:
    text = repr(rule)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _unsafe_in_rule(rule: Rule) -> List[str]:
    bound = _bound_variables(rule.body)
    unsafe: Set[str] = set()
    if isinstance(rule.head, ChoiceHead):
        for element in rule.head.elements:
            local = _bound_variables(list(rule.body) + list(element.condition))
            element_vars: Set[str] = set(element.atom.variables())
            for cond in element.condition:
                element_vars.update(cond.variables())
            unsafe.update(element_vars - local)
        body_vars: Set[str] = set()
        for part in rule.body:
            body_vars.update(part.variables())
        unsafe.update(body_vars - bound)
    else:
        all_vars = set(rule.variables())
        unsafe.update(all_vars - bound)
    return sorted(unsafe)


@checker(
    "encoding.safety",
    codes=("ASP001",),
    requires=("program",),
    description="every rule variable is bound by a positive body literal",
)
def check_safety(ctx) -> Iterable[Diagnostic]:
    program = ctx.program
    for rule in program.rules:
        unsafe = _unsafe_in_rule(rule)
        if unsafe:
            yield Diagnostic(
                "ASP001",
                Severity.ERROR,
                f"unsafe variables {unsafe} in rule: {_rule_display(rule)}",
            )
    for element in program.minimizes:
        bound = _bound_variables(element.body)
        all_vars = set(element.variables())
        unsafe_m = sorted(all_vars - bound)
        if unsafe_m:
            yield Diagnostic(
                "ASP001",
                Severity.ERROR,
                f"unsafe variables {unsafe_m} in minimize element: "
                f"{element!r}",
            )


# ---------------------------------------------------------------------------
# ASP002/ASP003: predicate dataflow
# ---------------------------------------------------------------------------
def _predicate_flow(program: Program) -> Tuple[Dict[str, int], Dict[str, int]]:
    """(derived, consumed) predicate-name → occurrence count."""
    derived: Dict[str, int] = {}
    consumed: Dict[str, int] = {}

    def consume(parts) -> None:
        for part in parts:
            if isinstance(part, Literal):
                consumed[part.atom.predicate] = (
                    consumed.get(part.atom.predicate, 0) + 1
                )

    for rule in program.rules:
        head = rule.head
        if isinstance(head, Atom):
            derived[head.predicate] = derived.get(head.predicate, 0) + 1
        elif isinstance(head, ChoiceHead):
            for element in head.elements:
                derived[element.atom.predicate] = (
                    derived.get(element.atom.predicate, 0) + 1
                )
                consume(element.condition)
        consume(rule.body)
    for element in program.minimizes:
        consume(element.body)
    return derived, consumed


@checker(
    "encoding.dataflow",
    codes=("ASP002", "ASP003"),
    requires=("program",),
    description="every derived predicate is consumed, and vice versa",
)
def check_dataflow(ctx) -> Iterable[Diagnostic]:
    derived, consumed = _predicate_flow(ctx.program)
    for predicate in sorted(set(derived) - set(consumed) - SOLVER_OUTPUTS):
        yield Diagnostic(
            "ASP002",
            Severity.WARNING,
            f"predicate {predicate!r} is derived ({derived[predicate]} "
            "rules/facts) but never consumed by any rule body, choice "
            "condition, or minimize element",
        )
    for predicate in sorted(set(consumed) - set(derived) - SOLVER_INPUTS):
        yield Diagnostic(
            "ASP003",
            Severity.WARNING,
            f"predicate {predicate!r} is consumed ({consumed[predicate]} "
            "bodies) but never derived and is not a known solver input "
            "(typo'd predicate name?)",
        )


# ---------------------------------------------------------------------------
# ASP004: can_splice reachability against actual reusable specs
# ---------------------------------------------------------------------------
@checker(
    "encoding.splice_reach",
    codes=("ASP004",),
    requires=("repo", "reusable_specs"),
    description="each can_splice rule has a matching installed spec",
)
def check_splice_reach(ctx) -> Iterable[Diagnostic]:
    installed: List[Spec] = []
    for spec in ctx.reusable_specs:
        installed.extend(spec.traverse())
    for pkg_cls in ctx.repo:
        for index, decl in enumerate(pkg_cls.can_splice_decls):
            target = decl.target
            if target.name is None or target.name not in ctx.repo:
                continue  # SPL001 territory
            if not any(
                node.name == target.name and node.satisfies(target)
                for node in installed
            ):
                yield Diagnostic(
                    "ASP004",
                    Severity.WARNING,
                    f"can_splice target {target} matches none of the "
                    f"{len(installed)} reusable spec nodes; the rule can "
                    "never fire in this configuration",
                    package=pkg_cls.name,
                    directive=f"can_splice[{index}]",
                )
