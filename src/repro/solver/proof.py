"""Clausal proof logging and a standalone RUP/DRUP-style checker.

The CDCL core, when handed a :class:`ProofLog`, records every clause that
enters or leaves the database: original input clauses (pre-pruning, so the
log stands on its own), learned clauses, theory lemmas (with the
T-inconsistent assignment they exclude), and deletions from learned-DB
reduction.  :func:`check_proof` then replays the log **by unit propagation
only** — it shares no state and no code with the search: every learned
clause must be RUP (assuming its negation and propagating the active
database must yield a conflict), every theory lemma must be the negation
of an assignment that an *independent* congruence check confirms to be
EUF-inconsistent, and the final UNSAT claim must follow by propagation
alone from the surviving database plus the check's assumptions.

This is deliberately the slow-and-obvious checker: a linear scan
propagator over plain tuples.  Proof sizes are bounded by the solver's
conflict budget, and :data:`repro.solver.interface.MAX_PROOF_EVENTS`
caps how many events a single check will replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fol.formula import Predicate
from repro.solver.modelcheck import euf_consistent, render_atom

#: The atom assignment (atom, value) a theory lemma excludes.
Premise = tuple[tuple[Predicate, bool], ...]


@dataclass(frozen=True, slots=True)
class ProofEvent:
    """One step of the clausal proof."""

    kind: str  # "input" | "learn" | "theory" | "delete"
    clause: tuple[int, ...]
    premise: Premise = ()  # theory lemmas: the assignment the lemma excludes


@dataclass(slots=True)
class ProofLog:
    """Append-only record of clause-database changes during search."""

    events: list[ProofEvent] = field(default_factory=list)

    # Clauses are normalized to sorted tuples: the search core reorders
    # clause lists in place (watched-literal swaps), so a delete event must
    # match its learn event by content, not by the order at logging time.

    def log_input(self, clause) -> None:
        self.events.append(ProofEvent("input", tuple(sorted(clause))))

    def log_learn(self, clause) -> None:
        self.events.append(ProofEvent("learn", tuple(sorted(clause))))

    def log_theory(self, clause, premise: Premise) -> None:
        self.events.append(ProofEvent("theory", tuple(sorted(clause)), premise))

    def log_delete(self, clause) -> None:
        self.events.append(ProofEvent("delete", tuple(sorted(clause))))

    def __len__(self) -> int:
        return len(self.events)


@dataclass(slots=True)
class ProofCheckResult:
    """Outcome of replaying one proof log."""

    ok: bool
    failures: list[str] = field(default_factory=list)
    events_checked: int = 0
    lemmas_certified: int = 0


def _propagates_to_conflict(
    clauses: list[tuple[int, ...]], units: tuple[int, ...]
) -> bool:
    """Does UP over ``clauses`` starting from ``units`` reach a conflict?

    A deliberately naive repeated-scan propagator: no watched literals, no
    trail, no sharing with the CDCL core.
    """
    assign: dict[int, bool] = {}
    for lit in units:
        var = abs(lit)
        value = lit > 0
        if assign.get(var, value) != value:
            return True  # the units themselves clash
        assign[var] = value
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            unassigned = 0
            open_count = 0
            satisfied = False
            for lit in clause:
                value = assign.get(abs(lit))
                if value is None:
                    unassigned = lit
                    open_count += 1
                elif value == (lit > 0):
                    satisfied = True
                    break
            if satisfied:
                continue
            if open_count == 0:
                return True  # clause falsified
            if open_count == 1:
                assign[abs(unassigned)] = unassigned > 0
                changed = True
    return False


def _expected_lemma(premise: Premise, variable_for) -> tuple[int, ...]:
    """The blocking clause a premise justifies: the negation of each literal."""
    lemma = []
    for atom, value in premise:
        var = variable_for(render_atom(atom))
        lemma.append(-var if value else var)
    return tuple(lemma)


def check_proof(
    events: list[ProofEvent],
    *,
    assumptions: tuple[int, ...] = (),
    variable_for=None,
    max_events: int | None = None,
) -> ProofCheckResult:
    """Replay a proof log and verify the UNSAT claim it supports.

    ``variable_for`` maps atom keys to SAT variables (needed to certify
    theory lemmas against their premises; pass the pool's ``variable_for``).
    The checker renders each premise atom's key itself; the congruence
    check reads the atoms' term trees.
    ``assumptions`` are the literals the check-sat ran under; the final
    conflict must be derivable with them as extra units.
    """
    result = ProofCheckResult(ok=True)
    if max_events is not None and len(events) > max_events:
        result.ok = False
        result.failures.append(
            f"proof too large to replay ({len(events)} events > cap {max_events})"
        )
        return result

    active: list[tuple[int, ...]] = []
    for event in events:
        result.events_checked += 1
        if event.kind == "input":
            active.append(event.clause)
        elif event.kind == "theory":
            if variable_for is None:
                result.ok = False
                result.failures.append(
                    "theory lemma present but no atom-variable map supplied"
                )
                return result
            if euf_consistent(event.premise):
                result.ok = False
                result.failures.append(
                    "theory lemma premise is EUF-consistent; lemma "
                    f"{event.clause} excludes a legal model"
                )
                return result
            expected = _expected_lemma(event.premise, variable_for)
            if set(event.clause) != set(expected):
                result.ok = False
                result.failures.append(
                    f"theory lemma {event.clause} is not the negation of its "
                    f"premise (expected {tuple(sorted(expected))})"
                )
                return result
            result.lemmas_certified += 1
            active.append(event.clause)
        elif event.kind == "learn":
            if event.clause and not _propagates_to_conflict(
                active, tuple(-lit for lit in event.clause)
            ):
                result.ok = False
                result.failures.append(
                    f"learned clause {event.clause} is not RUP with respect "
                    "to the active database"
                )
                return result
            active.append(event.clause)
        elif event.kind == "delete":
            try:
                active.remove(event.clause)
            except ValueError:
                result.ok = False
                result.failures.append(
                    f"deletion of clause {event.clause} not present in the "
                    "active database"
                )
                return result
        else:  # pragma: no cover - log writers only emit the kinds above
            result.ok = False
            result.failures.append(f"unknown proof event kind {event.kind!r}")
            return result

    if not _propagates_to_conflict(active, assumptions):
        result.ok = False
        result.failures.append(
            "UNSAT claim fails: unit propagation over the final database "
            "(plus assumptions) does not reach a conflict"
        )
    return result
