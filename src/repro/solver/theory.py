"""Lazy DPLL(T) integration of the SAT core with the EUF theory.

The SAT core enumerates boolean models of the CNF skeleton; each full model
is checked for EUF consistency.  Inconsistent models are excluded with a
blocking clause built from the theory conflict, and the search resumes.
This is the classical lazy SMT loop (the eager alternative would encode
congruence axioms up front).
"""

from __future__ import annotations

from repro.errors import BudgetExceededError, UnknownCause
from repro.solver import faults as _faults
from repro.solver.euf import check_euf
from repro.solver.literals import AtomPool
from repro.solver.result import SatResult, SolverStatistics
from repro.solver.sat import CDCLSolver

_MAX_THEORY_ROUNDS = 10_000


def solve_with_theory(
    sat: CDCLSolver,
    pool: AtomPool,
    *,
    assumptions: tuple[int, ...] = (),
    stats: SolverStatistics | None = None,
) -> SatResult:
    """Run the lazy DPLL(T) loop; returns the T-consistent verdict.

    Pure-boolean problems (no equality atoms, no function applications)
    skip theory checking entirely.
    """
    stats = stats or sat.stats
    theory_active = pool.needs_theory

    for _round in range(_MAX_THEORY_ROUNDS):
        verdict = sat.solve(assumptions)
        if verdict is not SatResult.SAT or not theory_active:
            return verdict

        stats.theory_checks += 1
        model = sat.model()
        named = pool.named_atoms()
        assignment = [
            (key, model[var]) for key, var in named.items() if var in model
        ]
        conflict = _faults.mutate("theory.conflict", check_euf(assignment))
        if conflict is None:
            return SatResult.SAT

        stats.theory_conflicts += 1
        blocking = _faults.mutate(
            "theory.blocking_clause",
            tuple(
                -pool.variable_for(key) if value else pool.variable_for(key)
                for key, value in conflict
            ),
        )
        # The lemma's premise (the T-inconsistent assignment it excludes)
        # rides along into the proof log so the certification layer can
        # re-check the congruence conflict independently.
        if not sat.add_clause(blocking, theory_premise=tuple(conflict)):
            return SatResult.UNSAT

    raise BudgetExceededError(
        "theory round budget exhausted", UnknownCause.THEORY_ROUNDS
    )
