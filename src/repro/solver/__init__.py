"""SMT solver substrate.

A from-scratch solver standing in for CVC5: CNF conversion (clause-shaped
assertions pass as clauses, the rest is Tseitin-encoded), a CDCL
SAT core (watched literals, VSIDS, Luby restarts), congruence closure for
equality over uninterpreted functions (lazy DPLL(T)), finite-domain
quantifier grounding, push/pop incrementality with ``check-sat-assuming``,
and explicit resource budgets so that the paper's solver timeouts surface
as first-class ``UNKNOWN`` results instead of hangs.

Every verdict can additionally be *certified* by a trust-but-verify layer
(:mod:`repro.solver.modelcheck`, :mod:`repro.solver.proof`): SAT answers
are re-validated against the original formulas by an independent
evaluator, UNSAT answers replay a clausal proof by unit propagation, and
a failed certificate demotes the verdict to UNKNOWN instead of surfacing
a possibly-wrong answer.
"""

from repro.solver.interface import Solver, SolverBudget
from repro.solver.result import (
    CERTIFICATION_FAILED,
    CertificateReport,
    SatResult,
    SolverResult,
    SolverStatistics,
)
from repro.solver.grounding import Universe

__all__ = [
    "CERTIFICATION_FAILED",
    "CertificateReport",
    "Solver",
    "SolverBudget",
    "SolverResult",
    "SatResult",
    "SolverStatistics",
    "Universe",
]
