"""Certified verdicts: the trust-but-verify layer under every check-sat.

Covers the three certification legs (independent model evaluation for SAT,
clausal-proof replay for UNSAT, congruence re-checking for EUF lemmas),
the soundness-mutation catalog (every seeded fault in
``repro.solver.faults`` must be caught and demoted to UNKNOWN, never
surfaced as a wrong verdict), the standalone proof checker, and the
wall-clock deadline enforcement added to grounding, preprocessing, and
long propagation chains.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.errors import BudgetExceededError, UnknownCause
from repro.fol.formula import And, Exists, Forall, Implies, Not, Or, PredicateSymbol
from repro.fol.terms import Constant, Sort, Variable
from repro.solver import (
    CERTIFICATION_FAILED,
    CertificateReport,
    CertificationConfig,
    SatResult,
    Solver,
    SolverBudget,
)
from repro.solver import faults
from repro.solver import modelcheck
from repro.solver.grounding import GroundingCounter, Universe, ground
from repro.solver.preprocess import preprocess
from repro.solver.proof import ProofLog, check_proof
from repro.solver.sat import CDCLSolver

S = Sort("S")
A = Constant("a", S)
B = Constant("b", S)
C = Constant("c", S)
X = Variable("x", S)
P = PredicateSymbol("p", (S,))
Q = PredicateSymbol("q", ())
R = PredicateSymbol("r", ())
EQ = PredicateSymbol("=", (S, S))


def certified_solver(**overrides) -> Solver:
    return Solver(certification=CertificationConfig(**overrides))


def pigeonhole(pigeons: int, holes: int) -> list:
    """PHP(pigeons, holes): UNSAT when pigeons > holes; forces learning."""
    atom = [
        [PredicateSymbol(f"x{i}_{j}", ())() for j in range(holes)]
        for i in range(pigeons)
    ]
    clauses = [Or(tuple(atom[i][j] for j in range(holes))) for i in range(pigeons)]
    for j in range(holes):
        for i in range(pigeons):
            for k in range(i + 1, pigeons):
                clauses.append(Or((Not(atom[i][j]), Not(atom[k][j]))))
    return clauses


def random_3sat(seed: int, num_vars: int = 12, ratio: float = 4.3) -> list:
    """Seeded random 3-SAT over 0-ary predicates (learning-heavy)."""
    rng = random.Random(seed)
    vs = [PredicateSymbol(f"v{i}", ())() for i in range(num_vars)]
    clauses = []
    for _ in range(int(num_vars * ratio)):
        picked = rng.sample(range(num_vars), 3)
        clauses.append(
            Or(tuple(vs[i] if rng.random() < 0.5 else Not(vs[i]) for i in picked))
        )
    return clauses


class TestCertifiedVerdicts:
    def test_sat_answer_carries_certified_model_report(self):
        solver = certified_solver()
        solver.assert_formula(Or((Q(), R())))
        solver.assert_formula(Not(R()))
        result = solver.check_sat()
        assert result.status is SatResult.SAT
        report = result.certificate
        assert report is not None and report.certified
        assert "cnf-model" in report.checks
        assert "fol-model" in report.checks
        assert report.failures == []

    def test_unsat_answer_carries_proof_replay_report(self):
        solver = certified_solver()
        solver.assert_formula(Q())
        solver.assert_formula(Not(Q()))
        result = solver.check_sat()
        assert result.status is SatResult.UNSAT
        report = result.certificate
        assert report is not None and report.certified
        assert "proof-replay" in report.checks
        assert report.proof_events > 0

    def test_learning_heavy_unsat_proof_replays(self):
        solver = certified_solver()
        for clause in pigeonhole(4, 3):
            solver.assert_formula(clause)
        result = solver.check_sat()
        assert result.status is SatResult.UNSAT
        assert result.statistics.conflicts > 0, "instance must force learning"
        assert result.certificate.certified

    def test_euf_theory_lemmas_are_certified(self):
        solver = certified_solver()
        solver.assert_formula(EQ(A, B))
        solver.assert_formula(EQ(B, C))
        solver.assert_formula(P(A))
        solver.assert_formula(Not(P(C)))
        result = solver.check_sat()
        assert result.status is SatResult.UNSAT
        report = result.certificate
        assert report.certified
        assert report.lemmas_certified >= 1

    def test_euf_sat_model_checked_for_congruence(self):
        solver = certified_solver()
        solver.assert_formula(EQ(A, B))
        solver.assert_formula(P(A))
        result = solver.check_sat()
        assert result.status is SatResult.SAT
        assert "euf-model" in result.certificate.checks
        assert result.certificate.certified

    def test_quantified_formulas_pass_grounding_parity(self):
        solver = certified_solver()
        solver.declare_constant(A)
        solver.declare_constant(B)
        solver.assert_formula(Forall(X, P(X)))
        result = solver.check_sat()
        assert result.status is SatResult.SAT
        assert "grounding-parity" in result.certificate.checks
        assert result.certificate.certified

    def test_assumptions_are_checked_in_the_model(self):
        solver = certified_solver()
        solver.assert_formula(Or((Q(), R())))
        result = solver.check_sat_assuming([Not(Q())])
        assert result.status is SatResult.SAT
        assert "assumptions" in result.certificate.checks
        assert result.certificate.certified

    def test_incremental_asserts_keep_per_formula_universe_snapshots(self):
        # A constant declared *after* a quantified assert must not make the
        # parity check re-expand the earlier formula over the larger
        # universe.
        solver = certified_solver()
        solver.declare_constant(A)
        solver.assert_formula(Forall(X, P(X)))
        solver.declare_constant(B)
        solver.assert_formula(Exists(X, Not(P(X))))
        result = solver.check_sat()
        assert result.certificate is not None
        assert result.certificate.certified

    def test_no_certification_config_means_no_report(self):
        solver = Solver()
        solver.assert_formula(Q())
        result = solver.check_sat()
        assert result.certificate is None

    def test_disabled_certification_config_means_no_report(self):
        solver = Solver(certification=CertificationConfig(enabled=False))
        solver.assert_formula(Q())
        result = solver.check_sat()
        assert result.certificate is None

    def test_unknown_verdicts_are_not_certified(self):
        solver = Solver(
            budget=SolverBudget(max_ground_instances=1),
            certification=CertificationConfig(),
        )
        for c in (A, B, C):
            solver.declare_constant(c)
        solver.assert_formula(Forall(X, P(X)))
        result = solver.check_sat()
        assert result.status is SatResult.UNKNOWN
        assert result.certificate is None

    def test_preprocessing_skips_proof_replay_but_checks_models(self):
        unsat = Solver(enable_preprocessing=True, certification=CertificationConfig())
        unsat.assert_formula(Q())
        unsat.assert_formula(Not(Q()))
        result = unsat.check_sat()
        assert result.status is SatResult.UNSAT
        assert result.certificate.status == "skipped"

        sat = Solver(enable_preprocessing=True, certification=CertificationConfig())
        sat.assert_formula(Or((Q(), R())))
        result = sat.check_sat()
        assert result.status is SatResult.SAT
        assert result.certificate.certified
        assert "fol-model" in result.certificate.checks

    def test_report_serialization(self):
        report = CertificateReport(
            verdict="sat", status="failed", checks=["cnf-model"], failures=["boom"]
        )
        as_dict = report.as_dict()
        assert as_dict["status"] == "failed"
        assert "seconds" not in as_dict
        assert report.failed and not report.certified
        assert "boom" in report.summary()


def _mutation(name: str) -> faults.Mutation:
    mutation = next(
        (m for m in faults.soundness_mutations() if m.name == name), None
    )
    assert mutation is not None, f"unknown mutation {name!r}"
    return mutation


def _euf_unsat() -> list:
    return [EQ(A, B), EQ(B, C), P(A), Not(P(C))]


def _forall_violated() -> list:
    return [Forall(X, P(X)), Not(P(B))]


#: Mutation name -> (formulas, constants to declare) on which the mutation
#: is known (deterministically) to fire AND corrupt the verdict or its
#: witness, so certification must raise the soundness alarm.
MUTATION_INSTANCES = {
    "drop-learned-literal": (random_3sat(3), ()),
    "flip-learned-literal": (pigeonhole(4, 3), ()),
    "flip-model-bit": ([P(A)], ()),
    "suppress-theory-conflict": (_euf_unsat(), ()),
    "drop-lemma-literal": (_euf_unsat(), ()),
    "drop-ground-instance": (_forall_violated(), (A, B)),
    "swap-ground-connective": (_forall_violated(), (A, B)),
}


class TestSoundnessMutationCatalog:
    def test_catalog_covers_at_least_six_distinct_sites(self):
        mutations = faults.soundness_mutations()
        assert len({m.site for m in mutations}) >= 6
        assert {m.name for m in mutations} == set(MUTATION_INSTANCES)

    @pytest.mark.parametrize("name", sorted(MUTATION_INSTANCES))
    def test_mutation_is_caught_and_demoted(self, name):
        formulas, constants = MUTATION_INSTANCES[name]
        mutation = _mutation(name)
        solver = certified_solver()
        for constant in constants:
            solver.declare_constant(constant)
        for formula in formulas:
            solver.assert_formula(formula)
        with faults.installed(mutation):
            result = solver.check_sat()
        assert mutation.fires > 0, f"{name} never fired on its instance"
        assert result.status is SatResult.UNKNOWN
        assert result.reason.startswith(CERTIFICATION_FAILED)
        report = result.certificate
        assert report is not None and report.failed
        assert report.failures, "alarm must name what failed"

    @pytest.mark.parametrize("name", sorted(MUTATION_INSTANCES))
    def test_mutation_never_surfaces_a_decided_verdict(self, name):
        """Even on *other* instances, a fired mutation may demote a verdict
        to UNKNOWN but must never flip it to the wrong decided answer."""
        formulas, constants = MUTATION_INSTANCES[name]
        reference = Solver()
        for constant in constants:
            reference.declare_constant(constant)
        for formula in formulas:
            reference.assert_formula(formula)
        expected = reference.check_sat().status

        mutation = _mutation(name)
        solver = certified_solver()
        for constant in constants:
            solver.declare_constant(constant)
        for formula in formulas:
            solver.assert_formula(formula)
        with faults.installed(mutation):
            result = solver.check_sat()
        assert result.status in (expected, SatResult.UNKNOWN)

    def test_clean_run_after_mutation_context_exits(self):
        mutation = _mutation("flip-model-bit")
        solver = certified_solver()
        solver.assert_formula(P(A))
        with faults.installed(mutation):
            assert solver.check_sat().status is SatResult.UNKNOWN
        # The seam is identity again: same solver, fresh check, clean pass.
        result = solver.check_sat()
        assert result.status is SatResult.SAT
        assert result.certificate.certified

    def test_mutation_site_names_are_validated(self):
        with pytest.raises(ValueError):
            faults.Mutation(site="not.a.site", name="x", fn=lambda v: v)


class TestProofChecker:
    def _variable_for(self):
        mapping: dict[str, int] = {}

        def variable_for(key: str) -> int:
            return mapping.setdefault(key, len(mapping) + 1)

        return variable_for

    def test_valid_resolution_proof_accepted(self):
        log = ProofLog()
        log.log_input((1, 2))
        log.log_input((-1, 2))
        log.log_input((-2,))
        log.log_learn((2,))  # RUP: assume -2, both inputs propagate to conflict
        result = check_proof(log.events)
        assert result.ok
        assert result.events_checked == len(log.events)

    def test_non_rup_learned_clause_rejected(self):
        log = ProofLog()
        log.log_input((1, 2))
        log.log_learn((1,))  # not implied by (1 or 2)
        result = check_proof(log.events)
        assert not result.ok
        assert any("not RUP" in f for f in result.failures)

    def test_unsat_claim_requires_final_conflict(self):
        log = ProofLog()
        log.log_input((1, 2))
        result = check_proof(log.events)
        assert not result.ok
        assert any("UNSAT claim" in f for f in result.failures)

    def test_deleted_clause_no_longer_supports_the_proof(self):
        log = ProofLog()
        log.log_input((1,))
        log.log_input((-1,))
        log.log_delete((1,))
        result = check_proof(log.events)
        assert not result.ok  # conflict needed (1) which was deleted

    def test_delete_of_unknown_clause_rejected(self):
        log = ProofLog()
        log.log_input((1,))
        log.log_delete((2,))
        result = check_proof(log.events)
        assert not result.ok
        assert any("deletion" in f for f in result.failures)

    def test_delete_matches_by_content_despite_reordering(self):
        log = ProofLog()
        log.log_input((2, 1))
        log.log_input((-1,))
        log.log_input((-2,))
        log.log_delete((1, 2))  # same clause, different literal order
        log.log_input((1, 2))
        result = check_proof(log.events)
        assert result.ok

    def test_assumptions_participate_in_final_conflict(self):
        log = ProofLog()
        log.log_input((-1, 2))
        log.log_input((-2,))
        assert not check_proof(log.events).ok
        assert check_proof(log.events, assumptions=(1,)).ok

    def test_event_cap_reports_too_large(self):
        log = ProofLog()
        for i in range(1, 6):
            log.log_input((i,))
        result = check_proof(log.events, max_events=2)
        assert not result.ok
        assert any("too large" in f for f in result.failures)

    def test_theory_lemma_with_consistent_premise_rejected(self):
        variable_for = self._variable_for()
        log = ProofLog()
        # Premise {p(a)=True} is EUF-consistent, so no lemma may claim it
        # as a congruence conflict.
        premise = (("p(a)", True),)
        log.log_theory((-variable_for("p(a)"),), premise)
        result = check_proof(log.events, variable_for=variable_for)
        assert not result.ok

    def test_theory_lemma_certified_against_its_premise(self):
        variable_for = self._variable_for()
        premise = (("=(a,b)", True), ("p(a)", True), ("p(b)", False))
        lemma = tuple(
            -variable_for(key) if value else variable_for(key)
            for key, value in premise
        )
        log = ProofLog()
        for lit in lemma:
            log.log_input((lit,))  # make the final claim succeed
        log.log_theory(lemma, premise)
        result = check_proof(log.events, variable_for=variable_for)
        assert not result.ok or result.lemmas_certified >= 1


class TestIndependentModelCheck:
    def test_clause_violations_reports_falsified_clauses(self):
        clauses = [(1, 2), (-1, 3)]
        assert modelcheck.clause_violations(clauses, {1: True, 3: True}) == []
        violations = modelcheck.clause_violations(clauses, {1: True, 3: False})
        assert violations == [(-1, 3)]

    def test_missing_variables_default_to_false(self):
        assert modelcheck.clause_violations([(1,)], {}) == [(1,)]
        assert modelcheck.clause_violations([(-1,)], {}) == []

    def test_evaluate_formula_with_quantifiers(self):
        domains = {S: (A, B)}
        assignment = {"p(a)": True, "p(b)": False}
        assert modelcheck.evaluate_formula(Exists(X, P(X)), assignment, domains)
        assert not modelcheck.evaluate_formula(Forall(X, P(X)), assignment, domains)
        assert modelcheck.evaluate_formula(
            Implies(Forall(X, P(X)), Q()), assignment, domains
        )

    def test_expand_matches_production_grounding(self):
        universe = Universe()
        universe.declare(A)
        universe.declare(B)
        formula = Forall(X, Or((P(X), Q())))
        production = ground(formula, universe)
        independent = modelcheck.expand(formula, universe.snapshot())
        assert production == independent

    def test_euf_consistent_detects_transitivity_violation(self):
        consistent = [("=(a,b)", True), ("p(a)", True), ("p(b)", True)]
        assert modelcheck.euf_consistent(consistent)
        broken = [
            ("=(a,b)", True),
            ("=(b,c)", True),
            ("p(a)", True),
            ("p(c)", False),
        ]
        assert not modelcheck.euf_consistent(broken)

    def test_euf_consistent_detects_disequality_merge(self):
        assert not modelcheck.euf_consistent(
            [("=(a,b)", True), ("=(b,a)", False)]
        )

    def test_euf_congruence_over_function_terms(self):
        assert not modelcheck.euf_consistent(
            [("=(a,b)", True), ("=(f(a),f(b))", False)]
        )

    def test_brute_force_status_matches_known_answers(self):
        domains = {S: (A, B)}
        assert modelcheck.brute_force_status([Forall(X, P(X))], domains) == "sat"
        assert (
            modelcheck.brute_force_status(
                [Forall(X, P(X)), Not(P(B))], domains
            )
            == "unsat"
        )
        assert (
            modelcheck.brute_force_status(_euf_unsat(), {S: (A, B, C)}) == "unsat"
        )

    def test_brute_force_status_caps_atom_count(self):
        formulas = [PredicateSymbol(f"b{i}", ())() for i in range(8)]
        with pytest.raises(Exception):
            modelcheck.brute_force_status(formulas, {}, max_atoms=4)


class TestWallClockDeadlines:
    def test_grounding_honours_expired_deadline(self):
        universe = Universe()
        constants = [Constant(f"c{i}", S) for i in range(30)]
        for constant in constants:
            universe.declare(constant)
        y, z = Variable("y", S), Variable("z", S)
        big = Forall(X, Forall(y, Forall(z, P(X))))
        counter = GroundingCounter(None, deadline=time.monotonic() - 1.0)
        with pytest.raises(BudgetExceededError, match="wall-clock timeout") as info:
            ground(big, universe, counter=counter)
        assert info.value.cause is UnknownCause.WALL_CLOCK
        # The deadline fired during expansion, far before the 30^3
        # instances a full expansion would have spent.
        assert counter.count < 30**3

    def test_solver_deadline_reaches_grounding(self):
        solver = Solver(
            budget=SolverBudget(timeout_seconds=0.0, max_ground_instances=None)
        )
        for i in range(30):
            solver.declare_constant(Constant(f"c{i}", S))
        y, z = Variable("y", S), Variable("z", S)
        solver.assert_formula(Forall(X, Forall(y, Forall(z, P(X)))))
        result = solver.check_sat()
        assert result.status is SatResult.UNKNOWN
        assert "timeout" in result.reason
        assert result.cause is UnknownCause.WALL_CLOCK
        assert result.statistics.ground_instances < 30**3

    def test_preprocessing_honours_expired_deadline(self):
        clauses = [(i, i + 1) for i in range(1, 2000)]
        with pytest.raises(BudgetExceededError, match="wall-clock timeout") as info:
            preprocess(clauses, deadline=time.monotonic() - 1.0)
        assert info.value.cause is UnknownCause.WALL_CLOCK

    def test_propagation_chain_honours_deadline_mid_pass(self):
        # One implication chain of 6000 variables: a single _propagate()
        # pass would walk all of it before the outer budget check runs.
        sat = CDCLSolver(6000, deadline=time.monotonic() - 1.0)
        for v in range(1, 6000):
            sat.add_clause((-v, v + 1))
        sat.add_clause((1,))
        with pytest.raises(BudgetExceededError, match="wall-clock timeout") as info:
            sat.solve()
        assert info.value.cause is UnknownCause.WALL_CLOCK
        # The in-pass check (every 1024 propagations) stopped the chain
        # long before it completed.
        assert sat.stats.propagations <= 2048
