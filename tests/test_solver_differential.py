"""Differential fuzzing: the SMT substrate vs a brute-force reference.

Generates seeded random FOL formulas — ground and quantified, boolean and
EUF (equality over constants and uninterpreted function terms) — and
cross-checks the production solver's verdict against
:func:`repro.solver.modelcheck.brute_force_status`, which shares no code
with the CDCL/DPLL(T) stack: it enumerates every assignment of the
appearing atoms and filters by an independent congruence check.

Any disagreement is a soundness or completeness bug in one of the two
implementations; the suite requires **zero** disagreements over 600+
formulas.  A second pass re-runs a sample with certification enabled and
requires every certificate to pass (the certifier must not raise false
alarms on correct verdicts).  A third renames the vocabulary to quoted
SMT-LIB names that print with commas and parentheses and requires both
the solver and the reference to keep each case's answer: two checkers
that misread atoms the same way agree with each other, but not with the
original case.

Marked ``fuzz``: the fast CI lane deselects it with ``-m "not fuzz"``.
"""

from __future__ import annotations

import random

import pytest

from repro.core.encode import EncodedQuery
from repro.core.verify import verify_encoded
from repro.fol.formula import (
    And,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Predicate,
    PredicateSymbol,
)
from repro.fol.terms import (
    Application,
    Constant,
    FunctionSymbol,
    Sort,
    Term,
    Variable,
)
from repro.fol.visitor import collect_constants
from repro.solver import SatResult, Solver
from repro.solver.modelcheck import brute_force_status, collect_atoms

pytestmark = pytest.mark.fuzz

S = Sort("S")
A = Constant("a", S)
B = Constant("b", S)
CONSTANTS = (A, B)
X = Variable("x", S)
P = PredicateSymbol("p", (S,))
EQ = PredicateSymbol("=", (S, S))
F = FunctionSymbol("f", (S,), S)
PROPS = tuple(PredicateSymbol(f"q{i}", ()) for i in range(3))

MAX_ATOMS = 8  # brute force enumerates 2^MAX_ATOMS assignments
FORMULAS_PER_SEED = 60
SEEDS = range(10)  # 10 x 60 = 600 formulas, fuzzer floor is 500


class FormulaGenerator:
    """Seeded random formula source; deterministic per seed."""

    def __init__(self, seed: int, *, euf: bool) -> None:
        self.rng = random.Random(seed)
        self.euf = euf

    def term(self, bound):
        choices = list(CONSTANTS) + list(bound)
        term = self.rng.choice(choices)
        if self.euf and self.rng.random() < 0.3:
            return F(term)
        return term

    def atom(self, bound) -> Formula:
        roll = self.rng.random()
        if self.euf and roll < 0.4:
            return EQ(self.term(bound), self.term(bound))
        if roll < 0.7:
            return P(self.term(bound))
        return self.rng.choice(PROPS)()

    def formula(self, depth: int, bound=()) -> Formula:
        if depth <= 0 or self.rng.random() < 0.3:
            return self.atom(bound)
        kind = self.rng.randrange(6)
        if kind == 0:
            return Not(self.formula(depth - 1, bound))
        if kind == 1:
            return And(
                tuple(
                    self.formula(depth - 1, bound)
                    for _ in range(self.rng.randint(2, 3))
                )
            )
        if kind == 2:
            return Or(
                tuple(
                    self.formula(depth - 1, bound)
                    for _ in range(self.rng.randint(2, 3))
                )
            )
        if kind == 3:
            return Implies(
                self.formula(depth - 1, bound), self.formula(depth - 1, bound)
            )
        if kind == 4:
            return Iff(
                self.formula(depth - 1, bound), self.formula(depth - 1, bound)
            )
        variable = Variable(f"x{len(bound)}", S)
        body = self.formula(depth - 1, bound + (variable,))
        cls = Forall if self.rng.random() < 0.5 else Exists
        return cls(variable, body)

    def case(self) -> list[Formula]:
        """A conjunction of 1-3 assertions, capped at MAX_ATOMS atoms."""
        domains = {S: CONSTANTS}
        while True:
            formulas = [
                self.formula(3) for _ in range(self.rng.randint(1, 3))
            ]
            keys: set[str] = set()
            for formula in formulas:
                keys.update(collect_atoms(formula, domains))
            if 0 < len(keys) <= MAX_ATOMS:
                return formulas


def solve(formulas, *, certify: bool = False, constants=CONSTANTS):
    solver = Solver(certify=certify)
    for constant in constants:
        solver.declare_constant(constant)
    for formula in formulas:
        solver.assert_formula(formula)
    return solver.check_sat()


def reference_status(formulas, constants=CONSTANTS) -> str:
    return brute_force_status(formulas, {S: constants}, max_atoms=MAX_ATOMS)


#: Quoted names that print like argument lists: a parser of printed keys
#: would split ``p(|a,b|)`` in two and never close ``|(b|``.
QUOTED = {A: Constant("|a,b|", S), B: Constant("|(b|", S)}
QUOTED_F = FunctionSymbol("|f,(|", (S,), S)


def quote_term(term: Term) -> Term:
    if isinstance(term, Application):
        return QUOTED_F(*map(quote_term, term.args))
    return QUOTED.get(term, term)


def quote(node: Formula) -> Formula:
    """``node`` over the quoted vocabulary: same shape, renamed a, b and f."""
    if isinstance(node, Predicate):
        return Predicate(node.symbol, tuple(map(quote_term, node.args)))
    if isinstance(node, Not):
        return Not(quote(node.operand))
    if isinstance(node, (And, Or)):
        return type(node)(tuple(map(quote, node.operands)))
    if isinstance(node, Implies):
        return Implies(quote(node.antecedent), quote(node.consequent))
    if isinstance(node, Iff):
        return Iff(quote(node.left), quote(node.right))
    return type(node)(node.variable, quote(node.body))


class TestDifferentialFuzz:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_solver_agrees_with_brute_force(self, seed):
        generator = FormulaGenerator(seed, euf=seed % 2 == 1)
        disagreements = []
        for index in range(FORMULAS_PER_SEED):
            formulas = generator.case()
            result = solve(formulas)
            expected = reference_status(formulas)
            if result.status.value != expected:
                disagreements.append(
                    (index, expected, result.status.value, formulas)
                )
        assert disagreements == []

    @pytest.mark.parametrize("seed", [0, 1])
    def test_certification_never_false_alarms_on_fuzzed_formulas(self, seed):
        """Certified verdicts on random formulas: same answer as the
        uncertified run, and every certificate passes."""
        generator = FormulaGenerator(100 + seed, euf=True)
        for _ in range(25):
            formulas = generator.case()
            plain = solve(formulas)
            certified = solve(formulas, certify=True)
            assert certified.status is plain.status
            if certified.status is not SatResult.UNKNOWN:
                report = certified.certificate
                assert report is not None
                assert report.certified, report.failures

    @pytest.mark.parametrize("seed", [1, 3, 5])
    def test_quoted_names_keep_every_answer(self, seed):
        generator = FormulaGenerator(seed, euf=True)
        quoted_constants = tuple(QUOTED[c] for c in CONSTANTS)
        changed = []
        for index in range(FORMULAS_PER_SEED):
            formulas = generator.case()
            expected = reference_status(formulas)
            renamed = [quote(f) for f in formulas]
            got = (
                solve(renamed, constants=quoted_constants).status.value,
                reference_status(renamed, quoted_constants),
            )
            if got != (expected, expected):
                changed.append((index, expected, got, formulas))
        assert changed == []

    def test_fuzzer_volume_meets_the_floor(self):
        assert len(SEEDS) * FORMULAS_PER_SEED >= 500

    def test_generator_is_deterministic(self):
        first = FormulaGenerator(7, euf=True)
        second = FormulaGenerator(7, euf=True)
        assert [first.case() for _ in range(5)] == [
            second.case() for _ in range(5)
        ]


QUERY_ONLY = Constant("c", S)


def _flag(status: SatResult, true_when: SatResult) -> bool | None:
    if status is SatResult.UNKNOWN:
        return None
    return status is true_when


def fresh_follow_ups(policy, query, vague) -> tuple[bool | None, bool | None]:
    """(policy_consistent, conditionally_valid) from fresh solvers, each
    grounded over the validity check's universe: the constants of the
    policy and of the query."""
    constants = sorted(collect_constants(And((*policy, query))), key=lambda c: c.name)

    def fresh(*formulas) -> Solver:
        solver = Solver()
        for constant in constants:
            solver.declare_constant(constant)
        for formula in formulas:
            solver.assert_formula(formula)
        return solver

    validity = fresh(*policy, Not(query)).check_sat().status
    if validity is SatResult.UNSAT:
        consistent = fresh(*policy).check_sat().status
        return _flag(consistent, SatResult.SAT), None
    if validity is SatResult.SAT and vague:
        assumptions = [PredicateSymbol(name, ())() for name in sorted(vague)]
        outcome = fresh(*policy, Not(query)).check_sat_assuming(assumptions)
        return None, _flag(outcome.status, SatResult.UNSAT)
    return None, None


class TestSharedSolverFollowUps:
    """verify_encoded answers its follow-up checks from the validity
    check's solver; fresh solvers over the same universe must agree,
    whether or not the validity check was certified first."""

    @pytest.mark.parametrize("certify", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_follow_ups_match_fresh_solvers(self, seed, certify):
        generator = FormulaGenerator(200 + seed, euf=seed == 2)
        vague = {prop.name: prop.name for prop in PROPS}
        seen = set()
        for _ in range(40):
            policy = generator.case()
            query = generator.formula(2)
            if generator.rng.random() < 0.5:
                # A constant only the query mentions widens the universe
                # every policy quantifier is grounded over.
                query = Or((query, P(QUERY_ONLY)))
            encoded = EncodedQuery(
                policy_formulas=policy, query_formula=query, uninterpreted=vague
            )
            result = verify_encoded(encoded, certify=certify)
            if result.certificate is not None:
                assert certify and result.certificate.certified, (policy, query)
            got = (result.policy_consistent, result.conditionally_valid)
            assert got == fresh_follow_ups(policy, query, vague), (policy, query)
            seen.add(got)
        # Every kind of follow-up answer turns up across the cases.
        assert {(True, None), (None, True), (None, False)} <= seen
