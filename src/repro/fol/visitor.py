"""Traversal utilities over the FOL AST: collection and substitution."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.fol.formula import (
    And,
    Exists,
    FalseFormula,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Predicate,
    PredicateSymbol,
)
from repro.fol.terms import Application, Constant, FunctionSymbol, Sort, Term, Variable


def subformulas(formula: Formula) -> Iterator[Formula]:
    """Depth-first pre-order iteration over all subformulas."""
    yield formula
    if isinstance(formula, Not):
        yield from subformulas(formula.operand)
    elif isinstance(formula, (And, Or)):
        for op in formula.operands:
            yield from subformulas(op)
    elif isinstance(formula, Implies):
        yield from subformulas(formula.antecedent)
        yield from subformulas(formula.consequent)
    elif isinstance(formula, Iff):
        yield from subformulas(formula.left)
        yield from subformulas(formula.right)
    elif isinstance(formula, (Forall, Exists)):
        yield from subformulas(formula.body)


def _terms_in(term: Term) -> Iterator[Term]:
    yield term
    if isinstance(term, Application):
        for arg in term.args:
            yield from _terms_in(arg)


def atoms(formula: Formula) -> Iterator[Predicate]:
    """All predicate atoms in ``formula``."""
    for sub in subformulas(formula):
        if isinstance(sub, Predicate):
            yield sub


def collect_predicates(formula: Formula) -> set[PredicateSymbol]:
    """Every predicate symbol used anywhere in ``formula``."""
    return {atom.symbol for atom in atoms(formula)}


def collect_uninterpreted(formula: Formula) -> set[PredicateSymbol]:
    """The uninterpreted (vague/external) predicate symbols in ``formula``."""
    return {s for s in collect_predicates(formula) if s.uninterpreted}


def collect_constants(formula: Formula) -> set[Constant]:
    """Every constant appearing as (part of) a predicate argument."""
    found: set[Constant] = set()
    for atom in atoms(formula):
        for arg in atom.args:
            for term in _terms_in(arg):
                if isinstance(term, Constant):
                    found.add(term)
    return found


@dataclass(slots=True)
class Signature:
    """The sorts, constants, functions and predicates some formulas use.

    Each map is keyed by name, and a name met again keeps the symbol met
    last.  Sorts come from constants, from function and predicate
    signatures and from quantified variables.
    """

    sorts: dict[str, Sort] = field(default_factory=dict)
    constants: dict[str, Constant] = field(default_factory=dict)
    functions: dict[str, FunctionSymbol] = field(default_factory=dict)
    predicates: dict[str, PredicateSymbol] = field(default_factory=dict)

    @classmethod
    def of(cls, formulas: Iterable[Formula]) -> "Signature":
        """Every symbol of ``formulas``, in one walk over each."""
        signature = cls()
        sorts = signature.sorts
        constants = signature.constants
        functions = signature.functions
        predicates = signature.predicates

        def term(node: Term) -> None:
            if isinstance(node, Constant):
                constants[node.name] = node
                sorts[node.sort.name] = node.sort
            elif isinstance(node, Application):
                symbol = node.symbol
                functions[symbol.name] = symbol
                sorts[symbol.result_sort.name] = symbol.result_sort
                for sort in symbol.arg_sorts:
                    sorts[sort.name] = sort
                for arg in node.args:
                    term(arg)

        def walk(node: Formula) -> None:
            if isinstance(node, Predicate):
                symbol = node.symbol
                predicates[symbol.name] = symbol
                for sort in symbol.arg_sorts:
                    sorts[sort.name] = sort
                for arg in node.args:
                    term(arg)
            elif isinstance(node, (And, Or)):
                for op in node.operands:
                    walk(op)
            elif isinstance(node, Not):
                walk(node.operand)
            elif isinstance(node, Implies):
                walk(node.antecedent)
                walk(node.consequent)
            elif isinstance(node, (Forall, Exists)):
                sorts[node.variable.sort.name] = node.variable.sort
                walk(node.body)
            elif isinstance(node, Iff):
                walk(node.left)
                walk(node.right)

        for formula in formulas:
            walk(formula)
        return signature


def free_variables(formula: Formula) -> set[Variable]:
    """Variables occurring free in ``formula``."""

    def walk(node: Formula, bound: frozenset[Variable]) -> set[Variable]:
        if isinstance(node, Predicate):
            out: set[Variable] = set()
            for arg in node.args:
                for term in _terms_in(arg):
                    if isinstance(term, Variable) and term not in bound:
                        out.add(term)
            return out
        if isinstance(node, Not):
            return walk(node.operand, bound)
        if isinstance(node, (And, Or)):
            out = set()
            for op in node.operands:
                out |= walk(op, bound)
            return out
        if isinstance(node, Implies):
            return walk(node.antecedent, bound) | walk(node.consequent, bound)
        if isinstance(node, Iff):
            return walk(node.left, bound) | walk(node.right, bound)
        if isinstance(node, (Forall, Exists)):
            return walk(node.body, bound | {node.variable})
        return set()

    return walk(formula, frozenset())


def _substitute_term(term: Term, mapping: dict[Variable, Term]) -> Term:
    if isinstance(term, Variable):
        return mapping.get(term, term)
    if isinstance(term, Application):
        return Application(
            term.symbol, tuple(_substitute_term(a, mapping) for a in term.args)
        )
    return term


def substitute(formula: Formula, mapping: dict[Variable, Term]) -> Formula:
    """Capture-avoiding substitution of variables by terms.

    Quantified variables shadow the mapping; since all our quantifier
    instantiations substitute ground terms, no renaming is ever needed.
    """
    if isinstance(formula, Predicate):
        return Predicate(
            formula.symbol,
            tuple(_substitute_term(a, mapping) for a in formula.args),
        )
    if isinstance(formula, Not):
        return Not(substitute(formula.operand, mapping))
    if isinstance(formula, And):
        return And(tuple(substitute(op, mapping) for op in formula.operands))
    if isinstance(formula, Or):
        return Or(tuple(substitute(op, mapping) for op in formula.operands))
    if isinstance(formula, Implies):
        return Implies(
            substitute(formula.antecedent, mapping),
            substitute(formula.consequent, mapping),
        )
    if isinstance(formula, Iff):
        return Iff(substitute(formula.left, mapping), substitute(formula.right, mapping))
    if isinstance(formula, (Forall, Exists)):
        inner = {k: v for k, v in mapping.items() if k != formula.variable}
        cls = type(formula)
        return cls(formula.variable, substitute(formula.body, inner))
    return formula
