"""Unit tests for the Solver façade and DPLL(T) integration."""

from dataclasses import replace

import pytest

from repro.errors import SolverError, UnknownCause
from repro.fol import (
    DATA,
    ENTITY,
    Constant,
    PredicateSymbol,
    Variable,
    forall,
    implies,
    negate,
    pred,
)
from repro.resilience.degradation import RESEED_SEEDS
from repro.smtlib.parser import execute_script
from repro.solver import SatResult, Solver, SolverBudget
from repro.solver.interface import CertificationConfig

E1 = Constant("tiktak", ENTITY)
E2 = Constant("advertisers", ENTITY)
D1 = Constant("email", DATA)
D2 = Constant("location", DATA)
SHARE = PredicateSymbol("share", (ENTITY, DATA))
CONSENT = PredicateSymbol("consent", (DATA,))
EQ = PredicateSymbol("=", (ENTITY, ENTITY))


class TestBasicChecks:
    def test_empty_is_sat(self):
        assert Solver().check_sat().status is SatResult.SAT

    def test_atom_model_readable(self):
        solver = Solver()
        solver.assert_formula(SHARE(E1, D1))
        result = solver.check_sat()
        assert result.is_sat
        assert result.model["share(tiktak,email)"] is True

    def test_contradiction(self):
        solver = Solver()
        solver.assert_formula(SHARE(E1, D1))
        solver.assert_formula(negate(SHARE(E1, D1)))
        assert solver.check_sat().is_unsat

    def test_modus_ponens_entailment(self):
        solver = Solver()
        solver.assert_formula(implies(SHARE(E1, D1), CONSENT(D1)))
        solver.assert_formula(SHARE(E1, D1))
        solver.assert_formula(negate(CONSENT(D1)))
        assert solver.check_sat().is_unsat


class TestQuantifiers:
    def test_forall_grounds_over_declared_constants(self):
        solver = Solver()
        x = Variable("x", DATA)
        solver.declare_constant(D1)
        solver.declare_constant(D2)
        solver.assert_formula(forall(x, implies(SHARE(E1, x), CONSENT(x))))
        solver.assert_formula(SHARE(E1, D2))
        solver.assert_formula(negate(CONSENT(D2)))
        assert solver.check_sat().is_unsat

    def test_constants_autodeclared_from_assertions(self):
        solver = Solver()
        solver.assert_formula(SHARE(E1, D1))
        assert solver.universe.size(ENTITY) == 1
        assert solver.universe.size(DATA) == 1


class TestPushPop:
    def test_pop_restores(self):
        solver = Solver()
        solver.assert_formula(SHARE(E1, D1))
        solver.push()
        solver.assert_formula(negate(SHARE(E1, D1)))
        assert solver.check_sat().is_unsat
        solver.pop()
        assert solver.check_sat().is_sat

    def test_pop_empty_raises(self):
        with pytest.raises(SolverError):
            Solver().pop()

    def test_nested_scopes(self):
        solver = Solver()
        solver.push()
        solver.push()
        solver.assert_formula(SHARE(E1, D1))
        assert len(solver.assertions) == 1
        solver.pop()
        assert len(solver.assertions) == 0
        solver.pop()


class TestCheckSatAssuming:
    def test_assumptions_are_temporary(self):
        solver = Solver()
        solver.assert_formula(implies(SHARE(E1, D1), CONSENT(D1)))
        unsat = solver.check_sat_assuming([SHARE(E1, D1), negate(CONSENT(D1))])
        assert unsat.is_unsat
        assert solver.check_sat().is_sat

    def test_multiple_assuming_calls_reuse_solver(self):
        solver = Solver()
        solver.assert_formula(implies(SHARE(E1, D1), CONSENT(D1)))
        first = solver.check_sat_assuming([SHARE(E1, D1)])
        second = solver.check_sat_assuming([negate(CONSENT(D1))])
        assert first.is_sat and second.is_sat

    def test_non_literal_assumption_rejected(self):
        solver = Solver()
        with pytest.raises(SolverError):
            solver.check_sat_assuming([implies(SHARE(E1, D1), CONSENT(D1))])


class TestEUFIntegration:
    def test_equality_predicate_congruence(self):
        solver = Solver()
        p = PredicateSymbol("trusted", (ENTITY,))
        solver.assert_formula(EQ(E1, E2))
        solver.assert_formula(p(E1))
        solver.assert_formula(negate(p(E2)))
        assert solver.check_sat().is_unsat

    def test_equality_sat_when_consistent(self):
        solver = Solver()
        p = PredicateSymbol("trusted", (ENTITY,))
        solver.assert_formula(EQ(E1, E2))
        solver.assert_formula(p(E1))
        solver.assert_formula(p(E2))
        assert solver.check_sat().is_sat


class TestBudgetsToUnknown:
    def test_grounding_budget_reports_unknown(self):
        solver = Solver(SolverBudget(max_ground_instances=1))
        x = Variable("x", DATA)
        y = Variable("y", DATA)
        solver.declare_constant(D1)
        solver.declare_constant(D2)
        solver.assert_formula(forall(x, forall(y, implies(SHARE(E1, x), CONSENT(y)))))
        result = solver.check_sat()
        assert result.is_unknown
        assert "grounding budget" in result.reason
        assert result.cause is UnknownCause.GROUND_INSTANCES

    def test_conflict_budget_reports_unknown(self):
        # PHP(7,6) with a 5-conflict cap cannot finish.
        solver = Solver(SolverBudget(max_conflicts=5))
        hole = PredicateSymbol("hole", (ENTITY, ENTITY))
        pigeons = [Constant(f"p{i}", ENTITY) for i in range(7)]
        holes = [Constant(f"h{i}", ENTITY) for i in range(6)]
        from repro.fol.builder import disjoin, conjoin

        for p in pigeons:
            solver.assert_formula(disjoin([hole(p, h) for h in holes]))
        for h in holes:
            for i in range(len(pigeons)):
                for j in range(i + 1, len(pigeons)):
                    solver.assert_formula(
                        negate(hole(pigeons[i], h)) | negate(hole(pigeons[j], h))
                    )
        result = solver.check_sat()
        assert result.is_unknown
        assert result.reason == "conflict budget exhausted"
        assert result.cause is UnknownCause.CONFLICTS

    def test_propagation_budget_names_its_cause(self):
        solver = Solver(SolverBudget(max_propagations=0))
        solver.assert_formula(SHARE(E1, D1))
        solver.assert_formula(implies(SHARE(E1, D1), CONSENT(D1)))
        result = solver.check_sat()
        assert result.is_unknown
        assert result.reason == "propagation budget exhausted"
        assert result.cause is UnknownCause.PROPAGATIONS

    def test_theory_round_budget_names_its_cause(self, monkeypatch):
        import repro.solver.theory as theory

        monkeypatch.setattr(theory, "_MAX_THEORY_ROUNDS", 0)
        solver = Solver()
        solver.assert_formula(SHARE(E1, D1))
        result = solver.check_sat()
        assert result.is_unknown
        assert result.reason == "theory round budget exhausted"
        assert result.cause is UnknownCause.THEORY_ROUNDS

    def test_decided_and_uncaused_results_carry_no_cause(self):
        solver = Solver()
        solver.assert_formula(SHARE(E1, D1))
        assert solver.check_sat().cause is None
        solver.assert_formula(negate(SHARE(E1, D1)))
        assert solver.check_sat().cause is None

    def test_statistics_populated(self):
        solver = Solver()
        solver.assert_formula(SHARE(E1, D1))
        result = solver.check_sat()
        assert result.statistics.variables >= 1


def guarded_pigeonhole_script(pigeons: int = 6) -> str:
    """PHP(n, n-1) with every clause escaped by two guard variables.

    The guards ``s`` and ``t`` come first, so they are decision variables
    1 and 2.  Seed 0's all-False phases dive into the exponentially hard
    UNSAT pigeonhole below them and exhaust a small conflict budget; a
    seed that phases either guard True satisfies every clause at once.
    Seeds 1 and 2 phase ``s`` True and seed 3 phases only ``t`` True, so
    one guard alone would leave seed 3 in the pigeonhole.
    """
    holes = pigeons - 1
    lines = ["(set-logic UF)", "(declare-fun s () Bool)", "(declare-fun t () Bool)"]

    def var(i: int, j: int) -> str:
        return f"x{i}_{j}"

    for i in range(pigeons):
        for j in range(holes):
            lines.append(f"(declare-fun {var(i, j)} () Bool)")
    for i in range(pigeons):
        lits = " ".join(var(i, j) for j in range(holes))
        lines.append(f"(assert (or s t {lits}))")
    for j in range(holes):
        for i in range(pigeons):
            for k in range(i + 1, pigeons):
                lines.append(f"(assert (or s t (not {var(i, j)}) (not {var(k, j)})))")
    lines.append("(check-sat)")
    return "\n".join(lines)


class TestDecisionSeed:
    """The budget's decision seed: what the ladder's reseed rung varies."""

    def test_reseed_seeds_rescue_the_guarded_pigeonhole(self):
        script = guarded_pigeonhole_script()
        budget = SolverBudget(max_conflicts=30)
        certification = CertificationConfig()
        runs = []
        for _ in range(2):  # the same answers on a second run
            (canonical,) = execute_script(
                script, budget=budget, certification=certification
            )
            assert canonical.is_unknown
            assert canonical.cause is UnknownCause.CONFLICTS
            run = [(canonical.status, canonical.reason)]
            for seed in RESEED_SEEDS:
                (result,) = execute_script(
                    script,
                    budget=replace(budget, decision_seed=seed),
                    certification=certification,
                )
                assert result.is_sat, seed
                assert result.certificate is not None
                assert result.certificate.certified
                assert result.model["s"] or result.model["t"]
                run.append((result.status, tuple(sorted(result.model.items()))))
            runs.append(run)
        assert runs[0] == runs[1]
