"""Solver results and statistics."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import UnknownCause


class SatResult(enum.Enum):
    """Outcome of a satisfiability check."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"

    def __str__(self) -> str:
        return self.value


@dataclass(slots=True)
class SolverStatistics:
    """Work counters accumulated across checks on one solver instance."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    learned_clauses: int = 0
    db_reductions: int = 0
    restarts: int = 0
    theory_checks: int = 0
    theory_conflicts: int = 0
    ground_instances: int = 0
    clauses: int = 0
    variables: int = 0
    solve_time_seconds: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "decisions": self.decisions,
            "propagations": self.propagations,
            "conflicts": self.conflicts,
            "learned_clauses": self.learned_clauses,
            "db_reductions": self.db_reductions,
            "restarts": self.restarts,
            "theory_checks": self.theory_checks,
            "theory_conflicts": self.theory_conflicts,
            "ground_instances": self.ground_instances,
            "clauses": self.clauses,
            "variables": self.variables,
            "solve_time_seconds": self.solve_time_seconds,
        }


#: Marker prefixed to UNKNOWN reasons produced by a failed certification.
#: Downstream layers (degradation ladder, CLI exit codes) key off it.
CERTIFICATION_FAILED = "certification failed"


@dataclass(slots=True)
class CertificateReport:
    """What the trust-but-verify layer checked for one verdict.

    ``status`` is ``"certified"`` when every applicable check passed,
    ``"failed"`` when any check found the verdict unsupported (a soundness
    alarm — the verdict is demoted to UNKNOWN), and ``"skipped"`` when the
    check was declined (e.g. the proof outgrew the replay cap); a skipped
    certificate leaves the verdict standing but says so.
    """

    verdict: str = ""  # "sat" | "unsat"
    status: str = "certified"  # "certified" | "failed" | "skipped"
    checks: list[str] = field(default_factory=list)  # checks that ran, in order
    failures: list[str] = field(default_factory=list)
    proof_events: int = 0
    lemmas_certified: int = 0
    seconds: float = 0.0

    @property
    def failed(self) -> bool:
        return self.status == "failed"

    @property
    def certified(self) -> bool:
        return self.status == "certified"

    def as_dict(self) -> dict[str, object]:
        return {
            "verdict": self.verdict,
            "status": self.status,
            "checks": list(self.checks),
            "failures": list(self.failures),
            "proof_events": self.proof_events,
            "lemmas_certified": self.lemmas_certified,
        }

    def summary(self) -> str:
        line = f"certificate: {self.status} ({', '.join(self.checks) or 'no checks'})"
        for failure in self.failures:
            line += f"\n  ! {failure}"
        return line


@dataclass(slots=True)
class SolverResult:
    """A check-sat outcome plus diagnostics.

    ``reason`` explains UNKNOWN outcomes ("conflict budget exhausted",
    "wall-clock timeout", "grounding budget exhausted", "certification
    failed: ...").  ``cause`` names the budget that tripped when the
    UNKNOWN ran out of one, and is ``None`` otherwise.  ``model`` maps
    atom keys to booleans for SAT outcomes.  ``certificate`` is attached
    when certification ran.
    """

    status: SatResult
    reason: str = ""
    model: dict[str, bool] = field(default_factory=dict)
    statistics: SolverStatistics = field(default_factory=SolverStatistics)
    certificate: CertificateReport | None = None
    cause: UnknownCause | None = None

    @property
    def is_sat(self) -> bool:
        return self.status is SatResult.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status is SatResult.UNSAT

    @property
    def is_unknown(self) -> bool:
        return self.status is SatResult.UNKNOWN

    def __str__(self) -> str:
        if self.reason:
            return f"{self.status} ({self.reason})"
        return str(self.status)
