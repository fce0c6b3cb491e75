"""Solver façade: the public API of the SMT substrate.

Mirrors the slice of the SMT-LIB command set the pipeline uses: declare
constants, assert formulas, ``push``/``pop``, ``check-sat``, and
``check-sat-assuming``.  Formulas may contain quantifiers; they are
grounded over the declared universe at check time.  All resource budgets
convert to UNKNOWN results with an explanatory reason — the mechanism by
which the paper's "solver timeouts" are observed rather than suffered.

Thread ownership: a :class:`Solver` instance is single-thread-owned.  It
carries mutable per-check state (assertion stack, persistent SAT core,
grounding counters, statistics) with no internal locking; the concurrent
batch engine (:meth:`repro.core.pipeline.PolicyPipeline.query_batch`)
therefore builds a fresh instance per verification inside each worker and
shares only the immutable :class:`SolverBudget` across threads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import BudgetExceededError, SolverError
from repro.fol.formula import Formula, Not, Predicate
from repro.fol.simplify import simplify
from repro.fol.visitor import collect_constants, free_variables
from repro.solver import modelcheck
from repro.solver.cnf import atom_key, tseitin
from repro.solver.grounding import GroundingCounter, Universe, ground
from repro.solver.literals import AtomPool
from repro.solver.preprocess import preprocess
from repro.solver.proof import ProofLog, check_proof
from repro.solver.result import (
    CERTIFICATION_FAILED,
    CertificateReport,
    SatResult,
    SolverResult,
    SolverStatistics,
)
from repro.solver.sat import CDCLSolver
from repro.solver.theory import solve_with_theory


@dataclass(frozen=True, slots=True)
class SolverBudget:
    """Resource limits for one check.

    ``None`` disables the corresponding limit.  The defaults are generous
    enough for query-sized problems and small enough that a full-policy
    encoding reliably reports UNKNOWN instead of hanging.

    ``decision_seed`` perturbs the SAT core's initial decision phases
    (:func:`repro.solver.sat.seeded_phase`).  Seed 0 is the canonical
    search; another seed explores a different trajectory over the same
    clauses, so a budget that starves seed 0 may still let it decide.
    It is a field here so it reaches the solver, and the verification
    cache key, wherever a budget does.
    """

    max_conflicts: int | None = 50_000
    max_propagations: int | None = 5_000_000
    max_ground_instances: int | None = 200_000
    timeout_seconds: float | None = 10.0
    decision_seed: int = 0

    def scaled(self, factor: float) -> "SolverBudget":
        """A budget with every finite limit multiplied by ``factor``.

        Disabled limits (``None``) stay disabled and the decision seed
        is kept.  This is the escalation primitive of the degradation
        ladder: UNKNOWN-with-budget-reason queries are re-checked at 4x,
        16x, ... of their original budget.
        """
        if factor <= 0:
            raise ValueError("scale factor must be > 0")

        def scale_int(value: int | None) -> int | None:
            return None if value is None else max(1, int(value * factor))

        return SolverBudget(
            max_conflicts=scale_int(self.max_conflicts),
            max_propagations=scale_int(self.max_propagations),
            max_ground_instances=scale_int(self.max_ground_instances),
            timeout_seconds=(
                None
                if self.timeout_seconds is None
                else self.timeout_seconds * factor
            ),
            decision_seed=self.decision_seed,
        )


@dataclass(frozen=True, slots=True)
class CertificationConfig:
    """Trust-but-verify settings for one :class:`Solver`.

    With certification enabled, every decided verdict is independently
    re-checked (SAT answers by model evaluation against the original
    formulas, UNSAT answers by clausal-proof replay, theory lemmas by an
    independent congruence check) and demoted to UNKNOWN with reason
    ``"certification failed: ..."`` when the check disagrees — a
    soundness alarm, never a silently wrong answer.

    ``max_proof_events`` caps proof replay: larger proofs report a
    ``"skipped"`` certificate (verdict stands, but the certificate says
    the proof was not replayed) instead of burning unbounded check time.
    """

    enabled: bool = True
    check_models: bool = True
    check_proofs: bool = True
    check_grounding: bool = True
    max_proof_events: int = 100_000


class Solver:
    """An incremental SMT solver over many-sorted ground/quantified FOL.

    Not thread-safe: create one instance per worker (see the module
    docstring for the ownership contract the batch query engine relies on).
    """

    def __init__(
        self,
        budget: SolverBudget | None = None,
        *,
        enable_preprocessing: bool = False,
        certification: CertificationConfig | None = None,
    ) -> None:
        self.budget = budget or SolverBudget()
        self.enable_preprocessing = enable_preprocessing
        self.certification = certification
        self.universe = Universe()
        self.statistics = SolverStatistics()
        self._stack: list[list[Formula]] = [[]]
        self._persistent: tuple[CDCLSolver, AtomPool] | None = None
        # Certification bookkeeping: per grounded assertion, the original
        # formula, the grounder's pre-simplification output, and the
        # universe snapshot it was expanded over.  Rebuilt with _build.
        self._cert_records: list[
            tuple[Formula, Formula, dict]
        ] = []
        # The grounding budget is cumulative over the whole problem: a
        # policy-sized assertion set exhausts it even though each individual
        # quantified axiom is small.  This is the mechanism behind the
        # full-policy UNKNOWNs (the paper's solver timeouts).
        self._ground_counter = GroundingCounter(self.budget.max_ground_instances)

    @property
    def _certifying(self) -> bool:
        return self.certification is not None and self.certification.enabled

    # ------------------------------------------------------------------
    # Assertion stack
    # ------------------------------------------------------------------

    def declare_constant(self, constant) -> None:
        """Add a constant to the grounding universe."""
        self.universe.declare(constant)

    def assert_formula(self, formula: Formula) -> None:
        """Assert ``formula`` at the current stack level.

        Constants appearing in the formula are auto-declared.
        """
        self.universe.declare_all(collect_constants(formula))
        self._stack[-1].append(formula)
        if self._persistent is not None:
            sat, pool = self._persistent
            try:
                self._load_formula(formula, sat, pool)
            except BudgetExceededError:
                self._persistent = None

    def push(self) -> None:
        """Open a new assertion scope."""
        self._stack.append([])

    def pop(self) -> None:
        """Discard the innermost assertion scope."""
        if len(self._stack) == 1:
            raise SolverError("pop on empty assertion stack")
        self._stack.pop()
        self._persistent = None  # learned state may depend on popped clauses

    @property
    def assertions(self) -> list[Formula]:
        """All currently asserted formulas, outermost scope first."""
        return [f for scope in self._stack for f in scope]

    # ------------------------------------------------------------------
    # Checking
    # ------------------------------------------------------------------

    def check_sat(self) -> SolverResult:
        """Is the conjunction of all assertions satisfiable?"""
        return self._check(assumption_formulas=())

    def check_sat_assuming(self, assumptions: list[Formula]) -> SolverResult:
        """check-sat under temporary literal assumptions.

        Assumptions must be ground atoms or their negations.  The solver
        instance (and its learned clauses) is reused across consecutive
        assuming-checks, which is the incremental-solving capability the
        paper names as future work.
        """
        return self._check(assumption_formulas=tuple(assumptions))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _deadline(self) -> float | None:
        if self.budget.timeout_seconds is None:
            return None
        return time.monotonic() + self.budget.timeout_seconds

    def _clauses_for(self, formula: Formula, pool: AtomPool) -> list:
        raw = ground(formula, self.universe, counter=self._ground_counter)
        if self._certifying:
            self._cert_records.append((formula, raw, self.universe.snapshot()))
        grounded = simplify(raw)
        self.statistics.ground_instances = self._ground_counter.count
        if free_variables(grounded):
            raise SolverError("assertion has free variables after grounding")
        return tseitin(grounded, pool)

    def _load_formula(self, formula: Formula, sat: CDCLSolver, pool: AtomPool) -> None:
        for clause in self._clauses_for(formula, pool):
            # A False return marks the instance root-unsat; the SAT core
            # remembers and reports it on the next solve.
            sat.add_clause(clause)

    def _build(self, deadline: float | None = None) -> tuple[CDCLSolver, AtomPool]:
        if self._persistent is not None:
            return self._persistent
        # Rebuilding from scratch re-grounds everything: start the
        # cumulative budget over.  The deadline rides on the counter so a
        # slow grounding phase converts into a wall-clock UNKNOWN instead
        # of overshooting the budget before search even starts.
        self._ground_counter = GroundingCounter(
            self.budget.max_ground_instances, deadline=deadline
        )
        self._cert_records = []
        pool = AtomPool()
        sat = CDCLSolver(
            0,
            stats=self.statistics,
            max_conflicts=self.budget.max_conflicts,
            max_propagations=self.budget.max_propagations,
            decision_seed=self.budget.decision_seed,
        )
        if self._certifying:
            sat.proof = ProofLog()
        clauses: list = []
        for formula in self.assertions:
            clauses.extend(self._clauses_for(formula, pool))
        if self.enable_preprocessing:
            # Named atoms stay protected: assumptions and model extraction
            # must see their real values.  Pure-literal elimination is
            # therefore safe on auxiliary (Tseitin) variables only.
            protected = frozenset(pool.named_atoms().values())
            result = preprocess(
                clauses, pure_literals=True, protect=protected, deadline=deadline
            )
            if result.conflict:
                sat.ensure_vars(pool.count)
                var = pool.fresh("conflict")
                sat.add_clause((var,))
                sat.add_clause((-var,))
                self._persistent = (sat, pool)
                return self._persistent
            clauses = list(result.clauses)
            clauses.extend(
                (var,) if value else (-var,) for var, value in result.fixed.items()
            )
        for clause in clauses:
            sat.add_clause(clause)
        sat.ensure_vars(pool.count)
        self._persistent = (sat, pool)
        return self._persistent

    def _assumption_literal(self, formula: Formula, pool: AtomPool) -> int:
        negated = False
        node = formula
        while isinstance(node, Not):
            negated = not negated
            node = node.operand
        if not isinstance(node, Predicate):
            raise SolverError("assumptions must be (negated) ground atoms")
        var = pool.variable_for(atom_key(node))
        return -var if negated else var

    def _check(self, assumption_formulas: tuple[Formula, ...]) -> SolverResult:
        start = time.monotonic()
        deadline = self._deadline()
        try:
            sat, pool = self._build(deadline)
            sat.deadline = deadline
            lits = tuple(
                self._assumption_literal(f, pool) for f in assumption_formulas
            )
            sat.ensure_vars(pool.count)
            verdict = solve_with_theory(
                sat, pool, assumptions=lits, stats=self.statistics
            )
        except BudgetExceededError as exc:
            self._persistent = None
            self.statistics.solve_time_seconds += time.monotonic() - start
            return SolverResult(
                status=SatResult.UNKNOWN,
                reason=str(exc),
                statistics=self.statistics,
                cause=exc.cause,
            )
        self.statistics.solve_time_seconds += time.monotonic() - start
        self.statistics.variables = pool.count
        model: dict[str, bool] = {}
        if verdict is SatResult.SAT:
            raw = sat.model()
            model = {
                key: raw.get(var, False) for key, var in pool.named_atoms().items()
            }
        result = SolverResult(
            status=verdict, model=model, statistics=self.statistics
        )
        if self._certifying and verdict is not SatResult.UNKNOWN:
            report = self._certify(verdict, sat, pool, lits)
            result.certificate = report
            if report.failed:
                # Soundness alarm: never surface the uncertified verdict.
                # The persistent core is dropped — its learned state is
                # tainted by whatever produced the bogus answer.
                self._persistent = None
                return SolverResult(
                    status=SatResult.UNKNOWN,
                    reason=f"{CERTIFICATION_FAILED}: {report.failures[0]}",
                    statistics=self.statistics,
                    certificate=report,
                )
        return result

    def _certify(
        self,
        verdict: SatResult,
        sat: CDCLSolver,
        pool: AtomPool,
        lits: tuple[int, ...],
    ) -> CertificateReport:
        """Independently re-check a decided verdict (see CertificationConfig)."""
        config = self.certification
        started = time.perf_counter()
        report = CertificateReport(verdict=verdict.value)

        def fail(message: str) -> None:
            report.status = "failed"
            report.failures.append(message)

        try:
            events = sat.proof.events if sat.proof is not None else []
            report.proof_events = len(events)

            if config.check_grounding:
                report.checks.append("grounding-parity")
                for formula, grounded, snapshot in self._cert_records:
                    if modelcheck.expand(formula, snapshot) != grounded:
                        fail(
                            "grounding mismatch: independent expansion of "
                            f"assertion {formula} disagrees with the grounder"
                        )
                        break

            if verdict is SatResult.SAT and config.check_models:
                raw = sat.model()
                report.checks.append("assumptions")
                for lit in lits:
                    if raw.get(abs(lit), False) != (lit > 0):
                        fail(f"model violates assumption literal {lit}")
                report.checks.append("cnf-model")
                inputs = [
                    e.clause for e in events if e.kind in ("input", "theory")
                ]
                violated = modelcheck.clause_violations(inputs, raw)
                if violated:
                    fail(
                        f"model falsifies {len(violated)} input clause(s), "
                        f"e.g. {violated[0]}"
                    )
                named = {
                    key: raw.get(var, False)
                    for key, var in pool.named_atoms().items()
                }
                report.checks.append("fol-model")
                for formula, _grounded, snapshot in self._cert_records:
                    if not modelcheck.evaluate_formula(formula, named, snapshot):
                        fail(
                            "model does not satisfy the original assertion "
                            f"{formula}"
                        )
                        break
                if pool.needs_theory:
                    report.checks.append("euf-model")
                    if not modelcheck.euf_consistent(named.items()):
                        fail("model is EUF-inconsistent under congruence")

            if verdict is SatResult.UNSAT and config.check_proofs:
                if self.enable_preprocessing:
                    # Presolving rewrites the clause set before it reaches
                    # the proof log; the replayed axioms would not be the
                    # asserted ones.  Decline rather than over-claim.
                    if not report.failures:
                        report.status = "skipped"
                    report.failures.append(
                        "proof replay skipped: preprocessing rewrites the "
                        "input clauses before logging"
                    )
                else:
                    report.checks.append("proof-replay")
                    outcome = check_proof(
                        events,
                        assumptions=lits,
                        variable_for=pool.variable_for,
                        max_events=config.max_proof_events,
                    )
                    report.lemmas_certified = outcome.lemmas_certified
                    if not outcome.ok:
                        if outcome.failures and outcome.failures[0].startswith(
                            "proof too large"
                        ):
                            if not report.failures:
                                report.status = "skipped"
                            report.failures.extend(outcome.failures)
                        else:
                            for message in outcome.failures:
                                fail(message)
        except Exception as exc:  # noqa: BLE001 - a broken certifier must alarm
            fail(f"certifier error: {type(exc).__name__}: {exc}")
        report.seconds = time.perf_counter() - started
        return report
