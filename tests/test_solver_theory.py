"""Unit tests for the DPLL(T) integration layer."""

import pytest

from repro.errors import BudgetExceededError
from repro.solver.cnf import atom_key, tseitin
from repro.solver.euf import EQ_PREDICATE
from repro.solver.literals import AtomPool
from repro.solver.result import SatResult
from repro.solver.sat import CDCLSolver
from repro.solver.theory import solve_with_theory
from repro.fol.formula import And, Not, PredicateSymbol
from repro.fol.terms import Constant, FunctionSymbol, Sort

S = Sort("S")
A = Constant("a", S)
B = Constant("b", S)
C = Constant("c", S)
EQ = PredicateSymbol("=", (S, S))
P = PredicateSymbol("p", (S,))
F = FunctionSymbol("f", (S,), S)


def _solve(formula):
    pool = AtomPool()
    sat = CDCLSolver(0)
    for clause in tseitin(formula, pool):
        sat.add_clause(clause)
    sat.ensure_vars(pool.count)
    return solve_with_theory(sat, pool), pool


def _intern(pool, atom):
    return pool.variable_for(atom_key(atom), atom)


class TestNeedsTheory:
    def test_equality_atom_triggers(self):
        pool = AtomPool()
        _intern(pool, EQ(A, B))
        assert pool.needs_theory

    def test_function_term_triggers(self):
        pool = AtomPool()
        _intern(pool, P(F(A)))
        assert pool.needs_theory

    def test_plain_atoms_do_not(self):
        pool = AtomPool()
        _intern(pool, P(A))
        _intern(pool, PredicateSymbol("flag")())
        # A constant's quoted name may print like an application.
        _intern(pool, P(Constant("|f(a)|", S)))
        assert not pool.needs_theory


class TestLazyLoop:
    def test_transitivity_chain_unsat(self):
        # a=b, b=c, p(a), not p(c): needs two theory rounds at most.
        formula = And((EQ(A, B), EQ(B, C), P(A), Not(P(C))))
        verdict, _pool = _solve(formula)
        assert verdict is SatResult.UNSAT

    def test_consistent_equalities_sat(self):
        formula = And((EQ(A, B), P(A), P(B)))
        verdict, _pool = _solve(formula)
        assert verdict is SatResult.SAT

    def test_disequality_requires_distinctness(self):
        # not a=b alone is satisfiable in EUF (a and b may differ).
        formula = Not(EQ(A, B))
        verdict, _pool = _solve(formula)
        assert verdict is SatResult.SAT

    def test_blocking_clauses_force_alternative_models(self):
        # (a=b or p(a)) and not p(b): if the solver first tries a=b with
        # p(a) true it hits a theory conflict and must find another model.
        formula = And(((EQ(A, B) | P(A)), Not(P(B))))
        pool = AtomPool()
        sat = CDCLSolver(0)
        for clause in tseitin(formula, pool):
            sat.add_clause(clause)
        sat.ensure_vars(pool.count)
        stats = sat.stats
        verdict = solve_with_theory(sat, pool, stats=stats)
        assert verdict is SatResult.SAT
        assert stats.theory_checks >= 1

    def test_theory_stats_counted(self):
        formula = And((EQ(A, B), P(A), Not(P(B))))
        pool = AtomPool()
        sat = CDCLSolver(0)
        for clause in tseitin(formula, pool):
            sat.add_clause(clause)
        sat.ensure_vars(pool.count)
        verdict = solve_with_theory(sat, pool)
        assert verdict is SatResult.UNSAT
        assert sat.stats.theory_conflicts >= 1
