"""Unit tests for CNF conversion, EUF, grounding, and the atom pool."""

import pytest

from repro.errors import BudgetExceededError, SolverError
from repro.fol import (
    DATA,
    ENTITY,
    And,
    Constant,
    Iff,
    Implies,
    Not,
    Or,
    PredicateSymbol,
    Variable,
    forall,
    exists,
)
from repro.fol.formula import FALSE, TRUE, Predicate
from repro.fol.simplify import simplify
from repro.fol.terms import Application, FunctionSymbol
from repro.smtlib.parser import execute_script
from repro.solver.cnf import atom_key, tseitin
from repro.solver.euf import CongruenceClosure, check_euf
from repro.solver.grounding import GroundingCounter, Universe, ground
from repro.solver.interface import Solver
from repro.solver.literals import AtomPool
from repro.solver.result import SatResult
from repro.solver.sat import CDCLSolver

E1 = Constant("a", ENTITY)
E2 = Constant("b", ENTITY)
D1 = Constant("email", DATA)
P = PredicateSymbol("p", (ENTITY,))
Q = PredicateSymbol("q", (ENTITY,))
SHARE = PredicateSymbol("share", (ENTITY, DATA))


def _solve(formula):
    pool = AtomPool()
    clauses = tseitin(formula, pool)
    solver = CDCLSolver(pool.count)
    for clause in clauses:
        solver.add_clause(clause)
    return solver.solve(), pool, solver


class TestAtomPool:
    def test_interning(self):
        pool = AtomPool()
        assert pool.variable_for("p(a)") == pool.variable_for("p(a)")
        assert pool.variable_for("p(a)") != pool.variable_for("p(b)")

    def test_fresh_vars_distinct(self):
        pool = AtomPool()
        assert pool.fresh() != pool.fresh()

    def test_named_atoms_excludes_aux(self):
        pool = AtomPool()
        pool.variable_for("p(a)")
        pool.fresh("and")
        assert list(pool.named_atoms()) == ["p(a)"]

    def test_key_round_trip(self):
        pool = AtomPool()
        var = pool.variable_for("share(x,y)")
        assert pool.key_for(var) == "share(x,y)"


class TestAtomKey:
    def test_nullary(self):
        assert atom_key(PredicateSymbol("flag")()) == "flag"

    def test_binary(self):
        assert atom_key(SHARE(E1, D1)) == "share(a,email)"

    def test_free_variable_rejected(self):
        x = Variable("x", ENTITY)
        with pytest.raises(SolverError):
            atom_key(P(x))

    def test_constant_name_that_is_no_simple_symbol_is_barred(self):
        assert atom_key(P(Constant("f(a)", ENTITY))) == "p(|f(a)|)"
        assert atom_key(SHARE(Constant("a,b", ENTITY), D1)) == "share(|a,b|,email)"
        assert atom_key(P(FunctionSymbol("f", (ENTITY,), ENTITY)(E1))) == "p(f(a))"

    @pytest.mark.parametrize("certify", [False, True])
    def test_constant_printing_as_an_application_is_its_own_atom(self, certify):
        # A constant named "f(a)" and the application f(a) are different
        # terms, so p holding of one and not the other is satisfiable.
        f = FunctionSymbol("f", (ENTITY,), ENTITY)
        solver = Solver(certify=certify)
        solver.assert_formula(P(Constant("f(a)", ENTITY)))
        solver.assert_formula(Not(P(f(E1))))
        result = solver.check_sat()
        assert result.status is SatResult.SAT
        if certify:
            assert result.certificate.certified

    def test_predicates_differing_only_in_source_text_are_one_atom(self):
        vague = PredicateSymbol("p", (ENTITY,), source_text="for business purposes")
        solver = Solver()
        solver.assert_formula(P(E1))
        solver.assert_formula(Not(vague(E1)))
        assert solver.check_sat().status is SatResult.UNSAT


class TestTseitin:
    def test_atom_sat(self):
        result, _pool, _ = _solve(P(E1))
        assert result is SatResult.SAT

    def test_contradiction_unsat(self):
        result, _pool, _ = _solve(And((P(E1), Not(P(E1)))))
        assert result is SatResult.UNSAT

    def test_or_requires_one(self):
        result, pool, solver = _solve(And((Or((P(E1), P(E2))), Not(P(E1)))))
        assert result is SatResult.SAT
        model = solver.model()
        assert model[pool.variable_for("p(b)")] is True

    def test_implies_modus_ponens(self):
        formula = And((Implies(P(E1), Q(E1)), P(E1), Not(Q(E1))))
        result, _pool, _ = _solve(formula)
        assert result is SatResult.UNSAT

    def test_iff_both_directions(self):
        formula = And((Iff(P(E1), Q(E1)), P(E1), Not(Q(E1))))
        result, _pool, _ = _solve(formula)
        assert result is SatResult.UNSAT

    def test_true_false_constants(self):
        assert _solve(TRUE)[0] is SatResult.SAT
        assert _solve(FALSE)[0] is SatResult.UNSAT

    def test_empty_and_is_true(self):
        assert _solve(And(()))[0] is SatResult.SAT

    def test_empty_or_is_false(self):
        assert _solve(Or(()))[0] is SatResult.UNSAT

    def test_clause_count_linear(self):
        pool = AtomPool()
        atoms = tuple(P(Constant(f"c{i}", ENTITY)) for i in range(50))
        clauses = tseitin(Or(atoms), pool)
        assert len(clauses) <= 2 * 50 + 5


class TestDirectClauses:
    """Clause-shaped conjuncts reach the core as one clause, no definitions."""

    C1 = PredicateSymbol("c1")()
    C2 = PredicateSymbol("c2")()

    def _clauses(self, formula):
        pool = AtomPool()
        clauses = tseitin(formula, pool)
        return clauses, pool

    def _assert_no_aux(self, pool):
        assert pool.count == len(pool.named_atoms())

    def _aux_keys(self, pool):
        keys = (pool.key_for(var) for var in range(1, pool.count + 1))
        return [key for key in keys if key.startswith("$")]

    def test_fact_is_one_unit(self):
        clauses, pool = self._clauses(SHARE(E1, D1))
        assert clauses == [(pool.variable_for("share(a,email)"),)]
        self._assert_no_aux(pool)

    def test_guarded_permit_is_one_clause(self):
        clauses, pool = self._clauses(
            Implies(And((self.C1, self.C2)), SHARE(E1, D1))
        )
        c1, c2, share = (
            pool.variable_for(k) for k in ("c1", "c2", "share(a,email)")
        )
        assert clauses == [(-c1, -c2, share)]
        self._assert_no_aux(pool)

    def test_denial_is_one_unit(self):
        clauses, pool = self._clauses(Not(SHARE(E1, D1)))
        assert clauses == [(-pool.variable_for("share(a,email)"),)]
        self._assert_no_aux(pool)

    def test_grounded_inheritance_axiom_is_one_clause_per_instance(self):
        universe = Universe()
        for name in ("a", "b", "c"):
            universe.declare(Constant(name, ENTITY))
        parent, child = Constant("contact", DATA), Constant("email", DATA)
        universe.declare(parent)
        universe.declare(child)
        x = Variable("x", ENTITY)
        axiom = forall(x, Implies(SHARE(x, parent), SHARE(x, child)))
        clauses, pool = self._clauses(simplify(ground(axiom, universe)))
        assert len(clauses) == 3
        for clause, entity in zip(clauses, ("a", "b", "c")):
            assert clause == (
                -pool.variable_for(f"share({entity},contact)"),
                pool.variable_for(f"share({entity},email)"),
            )
        self._assert_no_aux(pool)

    def test_double_negation_and_negated_conjunction(self):
        clauses, pool = self._clauses(
            And((Not(Not(Or((P(E1), Not(Q(E1)))))), Not(And((P(E2), Q(E2))))))
        )
        p_a, q_a, p_b, q_b = (
            pool.variable_for(k) for k in ("p(a)", "q(a)", "p(b)", "q(b)")
        )
        assert clauses == [(p_a, -q_a), (-p_b, -q_b)]
        self._assert_no_aux(pool)

    def test_iff_keeps_its_definition(self):
        clauses, pool = self._clauses(Iff(P(E1), Q(E1)))
        assert [key.split("#")[0] for key in self._aux_keys(pool)] == ["$iff"]
        assert len(clauses) == 5

    def test_or_of_ands_keeps_definitions(self):
        _clauses, pool = self._clauses(
            Or((And((P(E1), Q(E1))), And((P(E2), Q(E2)))))
        )
        assert [key.split("#")[0] for key in self._aux_keys(pool)] == [
            "$and", "$and", "$or",
        ]

    @pytest.mark.parametrize(
        "formula, verdict",
        [
            (And(()), SatResult.SAT),
            (Or(()), SatResult.UNSAT),
            (TRUE, SatResult.SAT),
            (FALSE, SatResult.UNSAT),
            (And((P(E1), Or(()))), SatResult.UNSAT),
            (Not(And(())), SatResult.UNSAT),
            (Not(Or(())), SatResult.SAT),
        ],
    )
    def test_empty_connectives_and_constants_keep_verdicts(self, formula, verdict):
        clauses, _pool = self._clauses(formula)
        assert all(clauses), "an empty input clause reached the core"
        assert _solve(formula)[0] is verdict

    def test_named_atoms_interned_left_to_right(self):
        formula = And(
            (
                Implies(And((self.C2, P(E2))), SHARE(E1, D1)),
                Iff(Q(E1), P(E1)),
                Or((Q(E2), self.C1)),
                Not(And((P(E2), PredicateSymbol("last")()))),
            )
        )
        _clauses, pool = self._clauses(formula)
        assert list(pool.named_atoms()) == [
            "c2", "p(b)", "share(a,email)", "q(a)", "p(a)", "q(b)", "c1", "last",
        ]


class TestGrounding:
    def _universe(self):
        universe = Universe()
        universe.declare(E1)
        universe.declare(E2)
        universe.declare(D1)
        return universe

    def test_forall_becomes_conjunction(self):
        x = Variable("x", ENTITY)
        grounded = ground(forall(x, P(x)), self._universe())
        assert isinstance(grounded, And)
        assert len(grounded.operands) == 2

    def test_exists_becomes_disjunction(self):
        x = Variable("x", ENTITY)
        grounded = ground(exists(x, P(x)), self._universe())
        assert isinstance(grounded, Or)

    def test_empty_domain_forall_true(self):
        x = Variable("x", ENTITY)
        grounded = ground(forall(x, P(x)), Universe())
        assert isinstance(grounded, type(TRUE))

    def test_empty_domain_exists_false(self):
        x = Variable("x", ENTITY)
        grounded = ground(exists(x, P(x)), Universe())
        assert isinstance(grounded, type(FALSE))

    def test_nested_quantifiers_multiply(self):
        x = Variable("x", ENTITY)
        y = Variable("y", ENTITY)
        grounded = ground(forall(x, forall(y, Or((P(x), P(y))))), self._universe())
        # 2 outer instances, each with 2 inner -> 4 leaves.
        assert isinstance(grounded, And)
        total = sum(len(op.operands) for op in grounded.operands)
        assert total == 4

    def test_budget_enforced(self):
        x = Variable("x", ENTITY)
        y = Variable("y", ENTITY)
        counter = GroundingCounter(budget=2)
        with pytest.raises(BudgetExceededError):
            ground(
                forall(x, forall(y, Or((P(x), P(y))))),
                self._universe(),
                counter=counter,
            )

    def test_universe_declare_idempotent(self):
        universe = Universe()
        universe.declare(E1)
        universe.declare(E1)
        assert universe.size(ENTITY) == 1

    def test_declare_all_sorted(self):
        universe = Universe()
        universe.declare_all({E2, E1})
        assert [c.name for c in universe.domain(ENTITY)] == ["a", "b"]


def _read_atom(text: str) -> Predicate:
    """The atom an SMT-LIB assertion of ``text`` reads as."""
    solver = Solver()
    execute_script(
        "(declare-sort E 0)(declare-const a E)(declare-const b E)"
        "(declare-const email E)(declare-fun f (E E) E)(declare-fun g (E) E)"
        "(declare-fun p (E) Bool)(declare-fun share (E E) Bool)"
        f"(declare-fun flag () Bool)(assert {text})",
        solver=solver,
    )
    return solver.assertions[-1]


class TestEUFParsing:
    """An atom's text is parsed once, by the SMT-LIB reader, into the term
    tree the congruence closure reads; nothing parses its printed key."""

    def test_parse_constant(self):
        (term,) = _read_atom("(p a)").args
        assert isinstance(term, Constant) and term.name == "a"

    def test_parse_application(self):
        (term,) = _read_atom("(p (f a b))").args
        assert isinstance(term, Application) and term.symbol.name == "f"
        assert [arg.name for arg in term.args] == ["a", "b"]

    def test_parse_nested(self):
        (term,) = _read_atom("(p (f (g a) b))").args
        inner, last = term.args
        assert inner.symbol.name == "g" and inner.args[0].name == "a"
        assert last.name == "b"

    def test_parse_atom(self):
        atom = _read_atom("(share a email)")
        assert atom.symbol.name == "share"
        assert [arg.name for arg in atom.args] == ["a", "email"]

    def test_parse_nullary_atom(self):
        atom = _read_atom("flag")
        assert atom.symbol.name == "flag" and atom.args == ()


C1 = Constant("c", ENTITY)
F = FunctionSymbol("f", (ENTITY,), ENTITY)
G = FunctionSymbol("g", (ENTITY,), ENTITY)
EQ = PredicateSymbol("=", (ENTITY, ENTITY))


class TestCongruenceClosure:
    def test_merge_and_find(self):
        cc = CongruenceClosure()
        cc.merge(E1, E2)
        assert cc.are_equal(E1, E2)
        assert not cc.are_equal(E1, C1)

    def test_transitivity(self):
        cc = CongruenceClosure()
        cc.merge(E1, E2)
        cc.merge(E2, C1)
        assert cc.are_equal(E1, C1)

    def test_congruence_propagation(self):
        cc = CongruenceClosure()
        cc.add_term(F(E1))
        cc.add_term(F(E2))
        cc.merge(E1, E2)
        cc.propagate_congruence()
        assert cc.are_equal(F(E1), F(E2))

    def test_nested_congruence(self):
        cc = CongruenceClosure()
        cc.add_term(G(F(E1)))
        cc.add_term(G(F(E2)))
        cc.merge(E1, E2)
        cc.propagate_congruence()
        assert cc.are_equal(G(F(E1)), G(F(E2)))


class TestCheckEUF:
    def test_consistent_assignment(self):
        assert check_euf([(EQ(E1, E2), True), (P(E1), True), (P(E2), True)]) is None

    def test_predicate_congruence_conflict(self):
        conflict = check_euf([(EQ(E1, E2), True), (P(E1), True), (P(E2), False)])
        assert conflict is not None
        atoms = {atom for atom, _v in conflict}
        assert P(E1) in atoms and P(E2) in atoms

    def test_disequality_violation(self):
        conflict = check_euf(
            [(EQ(E1, E2), True), (EQ(E2, C1), True), (EQ(E1, C1), False)]
        )
        assert conflict is not None

    def test_disequality_alone_fine(self):
        assert check_euf([(EQ(E1, E2), False)]) is None

    def test_function_congruence_through_equality(self):
        conflict = check_euf(
            [(EQ(E1, E2), True), (P(F(E1)), True), (P(F(E2)), False)]
        )
        assert conflict is not None
