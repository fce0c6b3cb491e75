"""UNKNOWN-verdict degradation ladder.

The paper's headline negative result is that full-policy formulas
overwhelm the solver; our :class:`~repro.solver.interface.Solver` converts
that into UNKNOWN-with-a-budget-reason instead of hanging.  This module
turns that dead end into a ladder of increasingly aggressive recoveries:

1. **Escalate** — re-verify the same encoding at 4x, 16x, ... of the
   original :class:`~repro.solver.interface.SolverBudget`.  Cheap when the
   problem was merely near the budget line.
2. **Decompose** — split the subgraph into independent data-branch
   components (:func:`repro.core.subgraph.split_components`) and verify the
   query against its own branch only.  Each branch re-grounds only its own
   hierarchy axioms, so a policy-sized problem shrinks back to query size.
3. **Reseed** — re-verify the full encoding at the original budget under
   each of :data:`RESEED_SEEDS`, which perturb the SAT core's initial
   decision phases.  A budget that starves the canonical search can still
   let another trajectory decide.  It runs last, so every query an earlier
   rung rescues keeps its report unchanged, and it skips an UNKNOWN whose
   grounding overran (no seed changes grounding).
4. **Partial verdict** — when nothing decides, the original UNKNOWN stands,
   but the attached :class:`DegradationReport` records every rung tried,
   its outcome, and its cost, so "genuinely undecidable under vagueness"
   is distinguishable from "ran out of budget at every rung".

Soundness of the decomposition rung: a VALID verdict on the query's
component is sound for the full problem (entailment is monotonic in the
assertion set).  An INVALID verdict is *partial* — formulas outside the
component cannot make the query true, but they could make the whole policy
inconsistent, which the full encoding would have reported as a
contradiction instead.  Steps record this via ``sound``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.core.encode import EncodedQuery, encode_query
from repro.core.subgraph import Subgraph, component_for_terms, split_components
from repro.core.verify import (
    Verdict,
    VerificationResult,
    is_certification_failure,
    verify_encoded,
)
from repro.errors import UnknownCause
from repro.llm.tasks import ExtractedParameters
from repro.solver.interface import SolverBudget

#: Decision seeds the reseed rung tries, in order (seed 0 is the canonical
#: search the query already ran).
RESEED_SEEDS = (1, 2, 3)


def is_budget_limited(verification: VerificationResult) -> bool:
    """Did this verification fail on resources rather than on substance?

    Only an UNKNOWN whose solver result names the budget that tripped
    (its :class:`~repro.errors.UnknownCause`) qualifies.  The
    contradiction UNKNOWN is decisive, not budget-bound.  Certification
    failures are excluded too: the soundness alarm means the solver's
    answers cannot be trusted, which more budget does not fix.
    """
    if verification.verdict is not Verdict.UNKNOWN:
        return False
    if is_certification_failure(verification):
        return False
    return verification.solver_result.cause is not None


@dataclass(frozen=True, slots=True)
class BudgetLadder:
    """Configuration of the degradation ladder.

    ``multipliers`` are applied to the query's base budget in order; the
    defaults quadruple twice (1x -> 4x -> 16x).  ``decompose`` enables the
    data-branch fallback after escalation; its verification runs at
    ``decompose_budget_multiplier`` times the base budget (1x by default —
    components are query-sized, the base budget is meant for them).
    """

    multipliers: tuple[float, ...] = (4.0, 16.0)
    decompose: bool = True
    decompose_budget_multiplier: float = 1.0

    def __post_init__(self) -> None:
        if any(m <= 1.0 for m in self.multipliers):
            raise ValueError("escalation multipliers must be > 1")
        if list(self.multipliers) != sorted(self.multipliers):
            raise ValueError("escalation multipliers must be increasing")
        if self.decompose_budget_multiplier <= 0:
            raise ValueError("decompose_budget_multiplier must be > 0")


@dataclass(slots=True)
class DegradationStep:
    """One rung of the ladder: what was tried and what it cost."""

    rung: str  # "escalate" | "decompose" | "reseed"
    detail: str
    verdict: str
    reason: str
    sound: bool = True
    seconds: float = 0.0
    ground_instances: int = 0
    conflicts: int = 0

    def as_dict(self) -> dict[str, object]:
        """Deterministic trace view (wall time deliberately excluded)."""
        return {
            "rung": self.rung,
            "detail": self.detail,
            "verdict": self.verdict,
            "reason": self.reason,
            "sound": self.sound,
        }


@dataclass(slots=True)
class DegradationReport:
    """Everything the ladder did for one query, in order."""

    base_reason: str
    steps: list[DegradationStep] = field(default_factory=list)
    rescued: bool = False
    final_rung: str | None = None

    @property
    def escalations(self) -> int:
        return sum(1 for s in self.steps if s.rung == "escalate")

    @property
    def decompositions(self) -> int:
        return sum(1 for s in self.steps if s.rung == "decompose")

    def as_dict(self) -> dict[str, object]:
        return {
            "base_reason": self.base_reason,
            "rescued": self.rescued,
            "final_rung": self.final_rung,
            "steps": [s.as_dict() for s in self.steps],
        }

    def summary(self) -> str:
        lines = [f"degradation ladder ({self.base_reason}):"]
        for step in self.steps:
            outcome = step.verdict
            if step.reason:
                outcome += f" ({step.reason})"
            if not step.sound:
                outcome += " [partial]"
            lines.append(f"  {step.rung} {step.detail}: {outcome}")
        lines.append(
            "  -> rescued by " + self.final_rung
            if self.rescued
            else "  -> not rescued; UNKNOWN stands"
        )
        return "\n".join(lines)


def execute_ladder(
    subgraph: Subgraph,
    params: ExtractedParameters,
    initial: VerificationResult,
    *,
    ladder: BudgetLadder | None = None,
    base_budget: SolverBudget | None = None,
    encoded: EncodedQuery | None = None,
    include_hierarchy_axioms: bool = True,
    simplify_formulas: bool = True,
    via_smtlib: bool = True,
    check_conditional: bool = True,
    verify=None,
) -> tuple[VerificationResult, DegradationReport]:
    """Run the degradation ladder for a budget-limited UNKNOWN.

    ``verify`` is an optional ``(encoded, budget) -> VerificationResult``
    callable; the pipeline passes its cache-aware verifier, standalone
    callers (benchmarks, tests) get plain :func:`verify_encoded`.  Returns
    the best verification reached plus the step-by-step report; when no
    rung decides, the returned verification is ``initial`` unchanged.

    Escalation rungs run while the current result is still
    budget-limited; the decomposition rung runs for any remaining UNKNOWN
    other than a certification failure — including the contradiction
    demotion, where isolating the query's data branch from an unrelated
    contradictory branch is exactly the recovery a human analyst would
    attempt.  The reseed rung runs last, and only
    while the full encoding's result is still budget-limited by something
    other than grounding.  It stops at the first decisive answer, or at
    the first UNKNOWN that is not budget-limited (a contradiction or a
    certification failure), which becomes the result.
    """
    if is_certification_failure(initial):
        # Soundness alarm: the solver's verdict failed independent
        # certification, so re-running at a bigger budget would only
        # produce more untrustworthy answers.  The UNKNOWN (with its
        # CertificateReport) stands; the empty report records that no
        # rung was attempted.
        return initial, DegradationReport(
            base_reason=initial.solver_result.reason, rescued=False
        )

    ladder = ladder or BudgetLadder()
    base = base_budget or SolverBudget()
    if verify is None:

        def verify(enc: EncodedQuery, budget: SolverBudget) -> VerificationResult:
            return verify_encoded(
                enc,
                budget=budget,
                via_smtlib=via_smtlib,
                check_conditional=check_conditional,
            )

    report = DegradationReport(base_reason=initial.solver_result.reason)
    current = initial

    def record(rung: str, detail: str, result: VerificationResult, *, sound: bool, seconds: float) -> None:
        stats = result.solver_result.statistics
        report.steps.append(
            DegradationStep(
                rung=rung,
                detail=detail,
                verdict=result.verdict.value,
                reason=result.solver_result.reason,
                sound=sound,
                seconds=seconds,
                ground_instances=stats.ground_instances,
                conflicts=stats.conflicts,
            )
        )

    if encoded is None:
        encoded = encode_query(
            subgraph,
            params,
            include_hierarchy_axioms=include_hierarchy_axioms,
            simplify_formulas=simplify_formulas,
        )

    for multiplier in ladder.multipliers:
        if not is_budget_limited(current):
            break
        started = time.perf_counter()
        attempt = verify(encoded, base.scaled(multiplier))
        record(
            "escalate",
            f"budget x{multiplier:g}",
            attempt,
            sound=True,
            seconds=time.perf_counter() - started,
        )
        current = attempt
        if attempt.verdict is not Verdict.UNKNOWN:
            report.rescued = True
            report.final_rung = "escalate"
            return attempt, report

    if (
        ladder.decompose
        and current.verdict is Verdict.UNKNOWN
        and not is_certification_failure(current)
    ):
        components = split_components(subgraph)
        terms = [params.data_type, params.sender or "", params.receiver or ""]
        component = component_for_terms(components, terms)
        if component is None or component.num_edges == subgraph.num_edges:
            detail = (
                "indivisible (1 component)"
                if component is not None
                else f"no component contains the query terms ({len(components)} components)"
            )
            record("decompose", detail, current, sound=True, seconds=0.0)
        else:
            component_encoded = encode_query(
                component,
                params,
                include_hierarchy_axioms=include_hierarchy_axioms,
                simplify_formulas=simplify_formulas,
            )
            started = time.perf_counter()
            attempt = verify(
                component_encoded, base.scaled(ladder.decompose_budget_multiplier)
            )
            sound = attempt.verdict is not Verdict.INVALID
            record(
                "decompose",
                f"component {component.num_edges}/{subgraph.num_edges} edges "
                f"({len(components)} components)",
                attempt,
                sound=sound,
                seconds=time.perf_counter() - started,
            )
            if attempt.verdict is not Verdict.UNKNOWN:
                report.rescued = True
                report.final_rung = "decompose"
                return attempt, report

    # A seed steers only the search, so it cannot change an UNKNOWN that
    # grounding tripped before the search began.
    if (
        is_budget_limited(current)
        and current.solver_result.cause is not UnknownCause.GROUND_INSTANCES
    ):
        for seed in RESEED_SEEDS:
            started = time.perf_counter()
            attempt = verify(encoded, replace(base, decision_seed=seed))
            record(
                "reseed",
                f"seed {seed}",
                attempt,
                sound=True,
                seconds=time.perf_counter() - started,
            )
            if attempt.verdict is not Verdict.UNKNOWN:
                report.rescued = True
                report.final_rung = "reseed"
                return attempt, report
            if not is_budget_limited(attempt):
                # A contradiction or a certification alarm: another seed
                # cannot undo either, and the alarm must not be hidden.
                return attempt, report

    return current, report
