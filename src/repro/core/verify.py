"""Phase 3 step 4: SMT-backed verification of an encoded query.

The encoded formulas are compiled to SMT-LIB v2 text, parsed back, and
solved — the same textual round trip the paper's CVC5 integration takes.
``unsat`` means the query necessarily follows from the policy (VALID);
``sat`` means it does not (INVALID); budget exhaustion yields UNKNOWN, the
paper's timeout case.

When a verdict involves uninterpreted predicates, the result reports which
vague terms it depends on, and — when the plain verdict is INVALID — an
additional ``check-sat-assuming`` pass determines whether the query would
follow if every vague condition were resolved in the policy's favour
(CONDITIONALLY VALID).  A VALID verdict gets a consistency check instead:
if the policy statements alone are unsatisfiable, the VALID is vacuous.

One question builds one solver.  The script puts the negated query in its
own ``push`` scope, and both follow-ups reuse the validity check's grounded
clauses: the conditional check asks ``check-sat-assuming`` of the
still-loaded core, and the consistency check ``pop``s the negated query
and reloads the policy's clauses into a fresh core without grounding them
again.  Either way the follow-up judges the policy over the same universe
the verdict was reached over (the policy's constants plus the query's), so
a VALID that holds only because the policy contradicts itself about a
query constant is caught.

Certification checks the validity check alone.  The follow-ups are not
certified, so ``policy_consistent`` and ``conditionally_valid`` are the
solver's unchecked answers, even though the first can demote a VALID to
UNKNOWN.  Certifying them is ROADMAP item 6.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.core.encode import EncodedQuery
from repro.errors import QueryError
from repro.fol.formula import PredicateSymbol
from repro.smtlib.printer import compile_validity_script
from repro.smtlib.parser import execute_script
from repro.solver.interface import Solver, SolverBudget
from repro.solver.result import (
    CERTIFICATION_FAILED,
    CertificateReport,
    SatResult,
    SolverResult,
)


class Verdict(enum.Enum):
    """Paper terminology for verification outcomes."""

    VALID = "VALID"
    INVALID = "INVALID"
    UNKNOWN = "UNKNOWN"
    # Not a solver outcome: the verdict of a fault-isolated batch query
    # whose pipeline raised (see repro.core.pipeline.ErrorOutcome).
    ERROR = "ERROR"

    def __str__(self) -> str:
        return self.value


@dataclass(slots=True)
class VerificationResult:
    """Verdict plus everything needed to audit it."""

    verdict: Verdict
    solver_result: SolverResult
    smtlib_text: str
    depends_on: dict[str, str] = field(default_factory=dict)  # predicate -> source text
    conditionally_valid: bool | None = None
    policy_consistent: bool | None = None
    counterexample: dict[str, bool] = field(default_factory=dict)
    quarantined_to: str | None = None  # directory of the quarantined formula

    @property
    def has_ambiguity(self) -> bool:
        return bool(self.depends_on)

    @property
    def certificate(self) -> CertificateReport | None:
        """The solver's certification report, when certification ran."""
        return self.solver_result.certificate

    def summary(self) -> str:
        lines = [f"verdict: {self.verdict}"]
        if self.policy_consistent is False:
            lines.append(
                "the relevant policy statements contradict each other; "
                "a human must decide which rule prevails"
            )
        if self.verdict is Verdict.UNKNOWN and self.solver_result.reason:
            lines.append(f"reason: {self.solver_result.reason}")
        if self.certificate is not None and self.certificate.failed:
            lines.append(
                "SOUNDNESS ALARM: the solver's answer failed independent "
                "certification; do not trust this verdict"
            )
            if self.quarantined_to:
                lines.append(f"offending formula quarantined to {self.quarantined_to}")
        if self.conditionally_valid:
            lines.append(
                "conditionally valid: holds if every vague condition is satisfied"
            )
        if self.depends_on:
            lines.append("depends on human interpretation of:")
            lines.extend(
                f"  - {name}: \"{source}\"" for name, source in sorted(self.depends_on.items())
            )
        if self.verdict is Verdict.INVALID and self.counterexample:
            falsified = [k for k, v in sorted(self.counterexample.items()) if not v]
            if falsified:
                lines.append(
                    "counterexample resolves these to false: " + ", ".join(falsified)
                )
        return "\n".join(lines)

    def as_dict(self) -> dict[str, object]:
        """JSON-serializable view (drops the solver internals)."""
        out: dict[str, object] = {
            "verdict": self.verdict.value,
            "reason": self.solver_result.reason,
            "depends_on": dict(self.depends_on),
            "conditionally_valid": self.conditionally_valid,
            "policy_consistent": self.policy_consistent,
            "counterexample": dict(self.counterexample),
        }
        # A *passing* certificate is cost accounting, not verdict content, so
        # it stays out of the trace — a certified run and an uncertified run
        # of the same query compare byte-identical.  A *failed* certificate
        # is the soundness alarm and must survive serialization.
        if self.certificate is not None and self.certificate.failed:
            out["certificate"] = self.certificate.as_dict()
        if self.quarantined_to is not None:
            out["quarantined_to"] = self.quarantined_to
        return out


def _status_to_verdict(status: SatResult) -> Verdict:
    if status is SatResult.UNSAT:
        return Verdict.VALID
    if status is SatResult.SAT:
        return Verdict.INVALID
    return Verdict.UNKNOWN


def is_certification_failure(verification: VerificationResult) -> bool:
    """Did this verification trip the soundness alarm?

    A certification-failure UNKNOWN is terminal: the solver produced an
    answer that its independent checker could not reproduce, so no amount
    of budget escalation can be trusted to do better (the degradation
    ladder short-circuits on it).
    """
    if verification.verdict is not Verdict.UNKNOWN:
        return False
    reason = verification.solver_result.reason or ""
    return reason.startswith(CERTIFICATION_FAILED)


def quarantine_failure(
    verification: VerificationResult, directory: str | Path
) -> Path:
    """Persist the offending formula and certificate for offline triage.

    Writes ``cert-<digest>/formula.smt2`` (the exact SMT-LIB text whose
    verdict failed certification) and ``report.json`` (the structured
    :class:`CertificateReport` plus the verdict context) through the
    atomic writers, so a crash mid-quarantine never leaves a truncated
    artifact.  Returns the quarantine directory.
    """
    from repro.store.atomic import atomic_write_json, atomic_write_text

    digest = hashlib.sha256(verification.smtlib_text.encode("utf-8")).hexdigest()
    target = Path(directory) / f"cert-{digest[:12]}"
    target.mkdir(parents=True, exist_ok=True)
    atomic_write_text(target / "formula.smt2", verification.smtlib_text)
    report = verification.certificate
    atomic_write_json(
        target / "report.json",
        {
            "reason": verification.solver_result.reason,
            "script_sha256": digest,
            "certificate": report.as_dict() if report is not None else None,
        },
    )
    verification.quarantined_to = str(target)
    return target


def compile_script_text(encoded: EncodedQuery) -> str:
    """The SMT-LIB text of the validity check for ``encoded``.

    This is the stable serialization the verification cache hashes: two
    queries that compile to the same script are the same solver problem.
    """
    if encoded.query_formula is None:
        raise QueryError("encoded query has no query formula")
    return compile_validity_script(
        encoded.policy_formulas, encoded.query_formula
    ).to_text()


def verification_cache_key(
    script_text: str,
    budget: SolverBudget | None,
    *,
    certify: bool = False,
) -> tuple:
    """Memoization key for :func:`verify_encoded`.

    Content-hashing the script makes the key revision-independent: the
    formulas fully determine the verdict, so a question whose script a
    policy update left unchanged hits across revisions (an update keeps
    the verification table and clears only the revision-keyed ones).
    The budget's wall-clock ``timeout_seconds`` is left out: a verdict
    reached inside the deadline does not depend on it, and callers must
    not store a result whose deadline ran out (see
    ``PolicyPipeline._verify``).
    """
    digest = hashlib.sha256(script_text.encode("utf-8")).hexdigest()
    budget = replace(budget or SolverBudget(), timeout_seconds=None)
    return (digest, budget, certify)


def verify_encoded(
    encoded: EncodedQuery,
    *,
    budget: SolverBudget | None = None,
    check_conditional: bool = True,
    script_text: str | None = None,
    certify: bool = False,
    quarantine_dir: str | Path | None = None,
) -> VerificationResult:
    """Check whether the encoded policy entails the encoded query.

    ``script_text`` lets callers that already compiled the SMT-LIB script
    (e.g. to build a cache key) pass it in instead of compiling twice.

    ``certify`` arms the solver's trust-but-verify layer on the main
    validity check: the verdict is independently re-validated, and a failed
    certificate surfaces as UNKNOWN with the soundness alarm set (never as
    a possibly-wrong VALID / INVALID).  With ``quarantine_dir``, the
    offending formula and certificate are additionally persisted via
    :func:`quarantine_failure`.
    """
    if encoded.query_formula is None:
        raise QueryError("encoded query has no query formula")
    text = script_text if script_text is not None else compile_script_text(encoded)

    solver = Solver(budget=budget, certify=certify)
    solver_result = execute_script(text, solver=solver)[-1]
    # The statistics describe the validity check alone: the follow-ups
    # below keep counting on the solver's own object.  They also stay
    # uncertified.
    solver_result.statistics = replace(solver_result.statistics)
    solver.certify = False

    verdict = _status_to_verdict(solver_result.status)
    certification_failed = (
        solver_result.certificate is not None and solver_result.certificate.failed
    )
    policy_consistent: bool | None = None
    if verdict is Verdict.VALID and not certification_failed:
        # A VALID verdict is vacuous when the policy statements themselves
        # are contradictory (the apparent-contradiction pattern); detect and
        # demote it so a human reviews the conflicting statements instead.
        # Popping the negated query leaves the policy grounded over the
        # universe the verdict used, query constants included.
        solver.pop()
        check = solver.check_sat()
        if check.status is SatResult.UNSAT:
            policy_consistent = False
            verdict = Verdict.UNKNOWN
            solver_result.reason = (
                "policy statements in the relevant subgraph are mutually "
                "contradictory; human review required"
            )
        elif check.status is SatResult.SAT:
            policy_consistent = True

    result = VerificationResult(
        verdict=verdict,
        solver_result=solver_result,
        smtlib_text=text,
        depends_on=dict(encoded.uninterpreted),
        policy_consistent=policy_consistent,
    )

    if verdict is Verdict.INVALID:
        result.counterexample = _counterexample(encoded, solver_result)
    if (
        check_conditional
        and verdict is Verdict.INVALID
        and encoded.uninterpreted
    ):
        result.conditionally_valid = _conditionally_valid(solver, encoded)
    if certification_failed and quarantine_dir is not None:
        quarantine_failure(result, quarantine_dir)
    return result


def _counterexample(
    encoded: EncodedQuery, solver_result: SolverResult
) -> dict[str, bool]:
    """The SAT witness restricted to the atoms the verdict hinges on.

    An INVALID verdict means the solver found a world consistent with the
    policy where the query fails.  Reporting the query's own atoms plus the
    uninterpreted predicates in that world explains *why* the query does
    not follow — typically "the vague condition was resolved to false".
    """
    if not solver_result.model:
        return {}
    from repro.fol.visitor import atoms
    from repro.solver.cnf import atom_key

    interesting: set[str] = set(encoded.uninterpreted)
    if encoded.query_formula is not None:
        for atom in atoms(encoded.query_formula):
            try:
                interesting.add(atom_key(atom))
            except Exception:  # noqa: BLE001 - quantified query atoms have no key
                continue
    return {
        key: value
        for key, value in solver_result.model.items()
        if key in interesting
    }


def _conditionally_valid(solver: Solver, encoded: EncodedQuery) -> bool | None:
    """Would the query follow if all vague conditions were resolved true?

    Uses ``check-sat-assuming`` over the uninterpreted predicates on the
    solver that still holds the validity check — the incremental
    exploration of query conditions the paper points to as future work.
    """
    assumptions = [
        PredicateSymbol(name, (), uninterpreted=True, source_text=source)()
        for name, source in sorted(encoded.uninterpreted.items())
    ]
    outcome = solver.check_sat_assuming(assumptions)
    if outcome.status is SatResult.UNSAT:
        return True
    if outcome.status is SatResult.SAT:
        return False
    return None
