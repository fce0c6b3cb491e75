"""Clausification of ground formulas to CNF.

A formula is split into its top-level ``And`` conjuncts.  A conjunct
that already says one clause goes to the SAT core as that clause: a
literal, an ``Or`` of literals, ``Implies(literal or And of literals,
literal or Or of literals)``, a ``Not`` of a conjunction of literals,
or any of these under double negation.  Facts, guarded permits,
denials, ground inheritance instances and the negated query all have
these shapes, so a question reaches the core as about one clause per
instance, each equivalent to its conjunct.

Any other conjunct (a permit guarded by a disjunction, say) gets the
Tseitin transformation: each non-atomic subformula gets a definition
variable, and the result is equisatisfiable with the conjunct.  Either
way the clause set is linear in the formula size; the
quadratic/exponential blow-up the paper reports comes from *grounding*,
not from this step.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import SolverError
from repro.fol.formula import (
    And,
    FalseFormula,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Predicate,
    TrueFormula,
)
from repro.fol.terms import Application, Constant, Term, Variable, symbol_key
from repro.solver.literals import AtomPool, Clause


def atom_key(atom: Predicate) -> str:
    """Canonical string key of a ground atom."""
    if not atom.args:
        return atom.symbol.name
    rendered = ",".join(_term_key(a) for a in atom.args)
    return f"{atom.symbol.name}({rendered})"


def _term_key(term: Term) -> str:
    if isinstance(term, Constant):
        return symbol_key(term.name)
    if isinstance(term, Application):
        inner = ",".join(_term_key(a) for a in term.args)
        return f"{term.symbol.name}({inner})"
    if isinstance(term, Variable):
        raise SolverError(f"formula is not ground: free variable {term.name}")
    raise SolverError(f"unsupported term {term!r}")


def tseitin(formula: Formula, pool: AtomPool) -> list[Clause]:
    """Clauses asserting ``formula``, using ``pool`` for variables."""
    clauses: list[Clause] = []
    for node in _conjuncts(formula):
        literals = _clause_literals(node)
        if literals is None:
            clauses.append((_encode(node, pool, clauses),))
            continue
        clause = []
        for atom, positive in literals:
            var = pool.variable_for(atom_key(atom), atom)
            clause.append(var if positive else -var)
        clauses.append(tuple(clause))
    return clauses


def _conjuncts(node: Formula) -> Iterator[Formula]:
    """The operands of nested non-empty top-level ``And`` nodes."""
    if isinstance(node, And) and node.operands:
        for op in node.operands:
            yield from _conjuncts(op)
    else:
        yield node


def _clause_literals(
    node: Formula, positive: bool = True
) -> list[tuple[Predicate, bool]] | None:
    """Signed atoms whose disjunction is ``node`` (its negation when not
    ``positive``), left to right; ``None`` when no clause says it.

    Touches no pool, so a conjunct is fully checked before any of its
    atoms is interned.
    """
    if isinstance(node, Not):
        return _clause_literals(node.operand, not positive)
    if isinstance(node, Predicate):
        return [(node, positive)]
    if positive and isinstance(node, Or):
        parts = [_literal(op) for op in node.operands]
    elif not positive and isinstance(node, And):
        parts = [_literal(op, False) for op in node.operands]
    elif positive and isinstance(node, Implies):
        ante = node.antecedent
        if isinstance(ante, And):
            parts = [_literal(op, False) for op in ante.operands]
        else:
            parts = [_literal(ante, False)]
        cons = node.consequent
        if isinstance(cons, Or):
            parts.extend(_literal(op) for op in cons.operands)
        else:
            parts.append(_literal(cons))
    else:
        return None
    if not parts or None in parts:
        return None
    return parts


def _literal(node: Formula, positive: bool = True) -> tuple[Predicate, bool] | None:
    """``node`` as a signed atom, or ``None`` when it is not a literal."""
    while isinstance(node, Not):
        node = node.operand
        positive = not positive
    if isinstance(node, Predicate):
        return node, positive
    return None


def _encode(node: Formula, pool: AtomPool, clauses: list[Clause]) -> int:
    """Return a literal equivalent to ``node``, emitting definition clauses."""
    if isinstance(node, TrueFormula):
        var = pool.fresh("true")
        clauses.append((var,))
        return var
    if isinstance(node, FalseFormula):
        var = pool.fresh("false")
        clauses.append((-var,))
        return var
    if isinstance(node, Predicate):
        return pool.variable_for(atom_key(node), node)
    if isinstance(node, Not):
        return -_encode(node.operand, pool, clauses)
    if isinstance(node, And):
        if not node.operands:
            return _encode(TrueFormula(), pool, clauses)
        lits = [_encode(op, pool, clauses) for op in node.operands]
        out = pool.fresh("and")
        # out -> each lit;  all lits -> out.
        for lit in lits:
            clauses.append((-out, lit))
        clauses.append(tuple([-lit for lit in lits] + [out]))
        return out
    if isinstance(node, Or):
        if not node.operands:
            return _encode(FalseFormula(), pool, clauses)
        lits = [_encode(op, pool, clauses) for op in node.operands]
        out = pool.fresh("or")
        # out -> some lit;  each lit -> out.
        clauses.append(tuple([-out] + lits))
        for lit in lits:
            clauses.append((-lit, out))
        return out
    if isinstance(node, Implies):
        return _encode(Or((Not(node.antecedent), node.consequent)), pool, clauses)
    if isinstance(node, Iff):
        left = _encode(node.left, pool, clauses)
        right = _encode(node.right, pool, clauses)
        out = pool.fresh("iff")
        clauses.append((-out, -left, right))
        clauses.append((-out, left, -right))
        clauses.append((out, left, right))
        clauses.append((out, -left, -right))
        return out
    raise SolverError(f"tseitin: formula is not ground/propositional: {node!r}")
