"""Solver façade: the public API of the SMT substrate.

Mirrors the slice of the SMT-LIB command set the pipeline uses: declare
constants, assert formulas, ``push``/``pop``, ``check-sat``, and
``check-sat-assuming``.  Formulas may contain quantifiers; they are
grounded over the declared universe at check time.  All resource budgets
convert to UNKNOWN results with an explanatory reason — the mechanism by
which the paper's "solver timeouts" are observed rather than suffered.

Each assertion is grounded and clausified once: the clauses are kept
per assertion, so after a ``pop`` the next check reloads the surviving
assertions' clauses into a fresh SAT core instead of grounding them again.
Declaring a constant the universe has not seen drops them all, because it
widens every quantifier grounded so far.

Inheritance axioms are grounded only over the entities that can perform
their action (:class:`~repro.solver.grounding.Senders`, DESIGN §8), so an
assertion or a positive assumption that adds such an entity to a grounded
axiom's action drops them too.  A ``pop`` leaves those sets as they were:
a superset is still sound.  A SAT model is reported completed, with every
atom the restriction leaves out set false; certification evaluates that
completed model against the original assertions over the whole universe.

Thread ownership: a :class:`Solver` instance is single-thread-owned.  It
carries mutable per-check state (assertion stack, grounded clauses,
persistent SAT core, grounding counters, statistics) with no internal
locking; the batch executor's workers
(:class:`repro.jobs.JobRunner`) therefore each build a fresh instance per
verification and share only the immutable :class:`SolverBudget` across
threads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from repro.errors import BudgetExceededError, SolverError
from repro.fol.formula import Formula, Not, Predicate
from repro.fol.simplify import simplify
from repro.fol.visitor import collect_constants, free_variables
from repro.solver import modelcheck
from repro.solver.cnf import atom_key, tseitin
from repro.solver.grounding import GroundingCounter, Senders, Universe, ground
from repro.solver.literals import AtomPool, Clause
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

    def tightened(self, seconds: float) -> "SolverBudget":
        """This budget with its deadline cut to ``seconds`` if that is sooner.

        A deadline only ever tightens: the effective one is
        ``min(timeout_seconds, seconds)``, and ``seconds`` alone when the
        budget has none.  Every other limit is kept.
        """
        timeout = (
            seconds
            if self.timeout_seconds is None
            else min(self.timeout_seconds, seconds)
        )
        return replace(self, timeout_seconds=timeout)

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


#: Proof replay stops past this many logged events: a larger proof gets a
#: ``"skipped"`` certificate (the verdict stands, but the certificate says
#: the proof was not replayed) instead of unbounded check time.
MAX_PROOF_EVENTS = 100_000


@dataclass(slots=True)
class _Grounded:
    """One assertion as grounded over the current universe."""

    formula: Formula
    raw: Formula | None  # the grounder's output, kept for certification
    clauses: list[Clause]
    variables: int  # pool size once these clauses were encoded
    instances: int  # grounding count once this assertion was grounded


class Solver:
    """An incremental SMT solver over many-sorted ground/quantified FOL.

    Not thread-safe: create one instance per worker (see the module
    docstring for the ownership contract the batch query engine relies on).

    With ``certify``, every decided verdict is independently re-checked:
    SAT answers by model evaluation against the original formulas, UNSAT
    answers by clausal-proof replay, theory lemmas by an independent
    congruence check, and every grounded assertion against its expansion
    over the current universe.  A verdict the checks disagree with is
    demoted to UNKNOWN with reason ``"certification failed: ..."``: a
    soundness alarm, never a silently wrong answer.
    """

    def __init__(
        self,
        budget: SolverBudget | None = None,
        *,
        enable_preprocessing: bool = False,
        certify: bool = False,
    ) -> None:
        self.budget = budget or SolverBudget()
        self.enable_preprocessing = enable_preprocessing
        self.certify = certify
        self.universe = Universe()
        self._senders = Senders()
        self.statistics = SolverStatistics()
        self._stack: list[list[Formula]] = [[]]
        # A prefix of self.assertions, grounded and encoded into _pool.
        self._grounded: list[_Grounded] = []
        self._pool = AtomPool()
        # The loaded SAT core over _grounded, kept across checks until a
        # pop or a universe change makes its learned clauses suspect.
        self._sat: CDCLSolver | None = None
        # The grounding budget is cumulative over the whole problem: a
        # policy-sized assertion set exhausts it even though each individual
        # quantified axiom is small.  This is the mechanism behind the
        # full-policy UNKNOWNs (the paper's solver timeouts).
        self._ground_counter = GroundingCounter(self.budget.max_ground_instances)

    # ------------------------------------------------------------------
    # Assertion stack
    # ------------------------------------------------------------------

    def declare_constant(self, constant) -> None:
        """Add a constant to the grounding universe.

        A new constant widens every quantifier grounded so far, so the
        grounded clauses and the loaded core are dropped and the next
        check grounds every assertion again.
        """
        if self.universe.declare(constant):
            self._reset()

    def assert_formula(self, formula: Formula) -> None:
        """Assert ``formula`` at the current stack level.

        Constants appearing in the formula are auto-declared (see
        :meth:`declare_constant`); a new constant, or a new entity that
        can perform an action whose inheritance axioms are grounded,
        drops the grounded clauses.
        """
        new_constant = self.universe.declare_all(collect_constants(formula))
        if self._senders.add(formula) or new_constant:
            self._reset()
        self._stack[-1].append(formula)
        if self._sat is not None:
            try:
                for clause in self._ground(formula).clauses:
                    self._sat.add_clause(clause)
            except BudgetExceededError:
                self._reset()

    def push(self) -> None:
        """Open a new assertion scope."""
        self._stack.append([])

    def pop(self) -> None:
        """Discard the innermost assertion scope.

        The loaded core goes (its learned clauses may rest on popped
        assertions); the surviving assertions keep their clauses, and the
        atom pool and grounding count return to what they were then.
        """
        if len(self._stack) == 1:
            raise SolverError("pop on empty assertion stack")
        self._stack.pop()
        self._sat = None
        keep = len(self.assertions)
        if len(self._grounded) > keep:
            del self._grounded[keep:]
            last = self._grounded[-1] if self._grounded else None
            self._pool.truncate(last.variables if last else 0)
            self._ground_counter.count = last.instances if last else 0
            self.statistics.ground_instances = self._ground_counter.count

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

    def _reset(self) -> None:
        """Forget the grounded clauses and the loaded core."""
        self._grounded = []
        self._senders.forget_grounding()
        self._pool = AtomPool()
        self._sat = None

    def _ground(self, formula: Formula) -> _Grounded:
        """Ground and encode the next assertion, and remember its clauses."""
        raw = ground(
            formula,
            self.universe,
            counter=self._ground_counter,
            senders=self._senders,
        )
        grounded = simplify(raw)
        self.statistics.ground_instances = self._ground_counter.count
        if free_variables(grounded):
            raise SolverError("assertion has free variables after grounding")
        entry = _Grounded(
            formula,
            raw if self.certify else None,
            tseitin(grounded, self._pool),
            self._pool.count,
            self._ground_counter.count,
        )
        self._grounded.append(entry)
        return entry

    def _build(self, deadline: float | None = None) -> tuple[CDCLSolver, AtomPool]:
        if self._sat is not None:
            return self._sat, self._pool
        # The deadline rides on the counter so a slow grounding phase
        # converts into a wall-clock UNKNOWN instead of overshooting the
        # budget before search even starts.
        if self._grounded:
            self._ground_counter.deadline = deadline
        else:
            # Grounding from scratch: start the cumulative budget over.
            self._ground_counter = GroundingCounter(
                self.budget.max_ground_instances, deadline=deadline
            )
        for formula in self.assertions[len(self._grounded) :]:
            self._ground(formula)
        pool = self._pool
        sat = CDCLSolver(
            0,
            stats=self.statistics,
            max_conflicts=self.budget.max_conflicts,
            max_propagations=self.budget.max_propagations,
            decision_seed=self.budget.decision_seed,
        )
        if self.certify:
            sat.proof = ProofLog()
        clauses = [clause for entry in self._grounded for clause in entry.clauses]
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
                self._sat = sat
                return sat, pool
            clauses = list(result.clauses)
            clauses.extend(
                (var,) if value else (-var,) for var, value in result.fixed.items()
            )
        for clause in clauses:
            # A False return marks the instance root-unsat; the SAT core
            # remembers and reports it on the next solve.
            sat.add_clause(clause)
        sat.ensure_vars(pool.count)
        self._sat = sat
        return sat, pool

    def _assumption_literal(self, formula: Formula, pool: AtomPool) -> int:
        negated = False
        node = formula
        while isinstance(node, Not):
            negated = not negated
            node = node.operand
        if not isinstance(node, Predicate):
            raise SolverError("assumptions must be (negated) ground atoms")
        var = pool.variable_for(atom_key(node), node)
        return -var if negated else var

    def _check(self, assumption_formulas: tuple[Formula, ...]) -> SolverResult:
        start = time.monotonic()
        deadline = self._deadline()
        stale = [self._senders.add(f) for f in assumption_formulas]
        if any(stale):
            self._reset()
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
            self._reset()
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
            keeps, atom_for = self._senders.keeps, pool.atom_for
            model = {
                key: raw.get(var, False) and keeps(atom_for(key))
                for key, var in pool.named_atoms().items()
            }
        result = SolverResult(
            status=verdict, model=model, statistics=self.statistics
        )
        if self.certify and verdict is not SatResult.UNKNOWN:
            report = self._certify(
                verdict, sat, pool, model, assumption_formulas, lits
            )
            result.certificate = report
            if report.failed:
                # Soundness alarm: never surface the uncertified verdict.
                # The clauses and the core are dropped — they are tainted
                # by whatever produced the bogus answer.
                self._reset()
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
        named: dict[str, bool],
        assumptions: tuple[Formula, ...],
        lits: tuple[int, ...],
    ) -> CertificateReport:
        """Independently re-check a decided verdict (see :class:`Solver`)."""
        started = time.perf_counter()
        report = CertificateReport(verdict=verdict.value)

        def fail(message: str) -> None:
            report.status = "failed"
            report.failures.append(message)

        try:
            events = sat.proof.events if sat.proof is not None else []
            report.proof_events = len(events)
            # Every assertion must be grounded over, and hold in, the
            # universe as it stands now, not as it stood when grounded.
            universe = self.universe.snapshot()

            # An inheritance axiom may be grounded over the entities that
            # can use it, recomputed here from the assertions and
            # assumptions; everything else must match full expansion.
            report.checks.append("grounding-parity")
            senders = modelcheck.senders([*self.assertions, *assumptions])
            for entry in self._grounded:
                message = modelcheck.grounding_mismatch(
                    entry.formula, entry.raw, universe, senders
                )
                if message is not None:
                    fail(message)
                    break

            if verdict is SatResult.SAT:
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
                report.checks.append("fol-model")
                for formula in self.assertions:
                    if not modelcheck.evaluate_formula(formula, named, universe):
                        fail(
                            "model does not satisfy the original assertion "
                            f"{formula}"
                        )
                        break
                if pool.needs_theory:
                    report.checks.append("euf-model")
                    atoms = ((pool.atom_for(k), v) for k, v in named.items())
                    if not modelcheck.euf_consistent(atoms):
                        fail("model is EUF-inconsistent under congruence")

            if verdict is SatResult.UNSAT:
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
                        max_events=MAX_PROOF_EVENTS,
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
