"""CNF preprocessing: unit propagation, subsumption, pure literals.

Classic presolving steps applied to the clause set before CDCL search.
Unit propagation and subsumption preserve logical equivalence over the
remaining clauses (units become fixed assignments that are reported back);
pure-literal elimination preserves satisfiability only, so it is opt-in
and must not be used when assumptions may later constrain eliminated
variables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import BudgetExceededError, UnknownCause
from repro.solver.literals import Clause


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceededError("wall-clock timeout", UnknownCause.WALL_CLOCK)


@dataclass(slots=True)
class PreprocessStats:
    """What preprocessing accomplished."""

    units_fixed: int = 0
    duplicates_removed: int = 0
    tautologies_removed: int = 0
    subsumed_removed: int = 0
    pure_eliminated: int = 0
    satisfied_removed: int = 0


@dataclass(slots=True)
class PreprocessResult:
    """Reduced clause set plus the assignments preprocessing fixed."""

    clauses: list[Clause] = field(default_factory=list)
    fixed: dict[int, bool] = field(default_factory=dict)  # var -> value
    conflict: bool = False
    stats: PreprocessStats = field(default_factory=PreprocessStats)


def _normalize(clause: Clause) -> Clause | None:
    """Sorted, deduplicated clause; None when tautological."""
    unique = tuple(sorted(set(clause)))
    seen = set(unique)
    for lit in unique:
        if -lit in seen:
            return None
    return unique


def propagate_units(
    result: PreprocessResult, *, deadline: float | None = None
) -> None:
    """Fix unit clauses and simplify the clause set to fixpoint."""
    changed = True
    while changed and not result.conflict:
        _check_deadline(deadline)
        changed = False
        remaining: list[Clause] = []
        for clause in result.clauses:
            lits = []
            satisfied = False
            for lit in clause:
                var = abs(lit)
                if var in result.fixed:
                    if result.fixed[var] == (lit > 0):
                        satisfied = True
                        break
                    continue  # literal false under fixed assignment
                lits.append(lit)
            if satisfied:
                result.stats.satisfied_removed += 1
                continue
            if not lits:
                result.conflict = True
                return
            if len(lits) == 1:
                lit = lits[0]
                var = abs(lit)
                value = lit > 0
                if var in result.fixed and result.fixed[var] != value:
                    result.conflict = True
                    return
                if var not in result.fixed:
                    result.fixed[var] = value
                    result.stats.units_fixed += 1
                changed = True
                continue
            remaining.append(tuple(lits))
        result.clauses = remaining


def remove_subsumed(
    result: PreprocessResult, *, deadline: float | None = None
) -> None:
    """Drop clauses that are supersets of another clause.

    Uses the smallest-clause-first ordering with set containment; fine for
    the clause counts our encodings produce.
    """
    ordered = sorted(result.clauses, key=len)
    kept: list[Clause] = []
    kept_sets: list[frozenset[int]] = []
    for i, clause in enumerate(ordered):
        if i % 256 == 0:
            _check_deadline(deadline)
        clause_set = frozenset(clause)
        if any(k <= clause_set for k in kept_sets):
            result.stats.subsumed_removed += 1
            continue
        kept.append(clause)
        kept_sets.append(clause_set)
    result.clauses = kept


def eliminate_pure_literals(
    result: PreprocessResult,
    *,
    protect: frozenset[int] = frozenset(),
    deadline: float | None = None,
) -> None:
    """Fix variables that occur with only one polarity.

    Satisfiability-preserving only: do not protect a variable here and then
    assume its other polarity later.  ``protect`` lists variables exempt
    from elimination (e.g. named atoms that may appear in assumptions or
    need faithful model values).
    """
    changed = True
    while changed and not result.conflict:
        _check_deadline(deadline)
        changed = False
        polarity: dict[int, int] = {}
        for clause in result.clauses:
            for lit in clause:
                var = abs(lit)
                polarity[var] = polarity.get(var, 0) | (1 if lit > 0 else 2)
        pure = {
            var: bits == 1
            for var, bits in polarity.items()
            if bits != 3 and var not in protect and var not in result.fixed
        }
        if not pure:
            return
        for var, value in pure.items():
            result.fixed[var] = value
            result.stats.pure_eliminated += 1
        result.clauses = [
            clause
            for clause in result.clauses
            if not any(abs(l) in pure and pure[abs(l)] == (l > 0) for l in clause)
        ]
        changed = True


def preprocess(
    clauses: list[Clause],
    *,
    pure_literals: bool = False,
    protect: frozenset[int] = frozenset(),
    deadline: float | None = None,
) -> PreprocessResult:
    """Run the presolving pipeline over ``clauses``.

    Returns the reduced clause set, fixed assignments, and a conflict flag
    (True means the input is unsatisfiable outright).  ``deadline`` (a
    ``time.monotonic`` instant) aborts presolving with a wall-clock
    :class:`BudgetExceededError`, mirroring the search-time budget.
    """
    result = PreprocessResult()
    seen: set[Clause] = set()
    for clause in clauses:
        normalized = _normalize(clause)
        if normalized is None:
            result.stats.tautologies_removed += 1
            continue
        if normalized in seen:
            result.stats.duplicates_removed += 1
            continue
        seen.add(normalized)
        result.clauses.append(normalized)

    propagate_units(result, deadline=deadline)
    if result.conflict:
        return result
    remove_subsumed(result, deadline=deadline)
    propagate_units(result, deadline=deadline)
    if not result.conflict and pure_literals:
        eliminate_pure_literals(result, protect=protect, deadline=deadline)
    return result
