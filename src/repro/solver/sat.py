"""CDCL SAT core.

Conflict-driven clause learning with two-watched-literal propagation,
VSIDS decision heuristics with phase saving, 1UIP conflict analysis,
Luby-sequence restarts, assumption-based solving (the mechanism behind
``check-sat-assuming``), and hard resource budgets.

The implementation favours clarity over raw speed, but is a real CDCL
solver: it learns clauses, backjumps non-chronologically, and restarts.

Decisions come from a MiniSat-style order heap: a binary max-heap of
variables keyed on VSIDS activity, ties broken towards the lower
variable index, so the top is exactly the variable a linear scan with a
strict ``>`` would pick.  Removal is lazy: assigned variables stay in the
heap until ``_decide`` pops and discards them, and ``_backtrack``
reinserts every variable it unassigns that is not already there.  A
bump only raises an activity, so the bumped variable sifts up in place;
an activity rescale can round distinct activities into ties the heap
order does not expect, so it rebuilds the heap instead.
"""

from __future__ import annotations

import time

from repro.errors import BudgetExceededError, SolverError, UnknownCause
from repro.solver import faults as _faults
from repro.solver.proof import Premise, ProofLog
from repro.solver.result import SatResult, SolverStatistics

_UNASSIGNED = 0
_TRUE = 1
_FALSE = -1

_RESTART_BASE = 64
_ACTIVITY_DECAY = 0.95
_ACTIVITY_RESCALE = 1e100

# Knuth-style multiplicative hashes for the seeded initial-phase
# assignment.  Seed 0 is reserved for the legacy all-False phases so a
# seeded re-solve can never silently replace the canonical search
# trajectory (byte-identical traces depend on it).
_PHASE_HASH_VAR = 2654435761
_PHASE_HASH_SEED = 2246822519


def seeded_phase(var: int, seed: int) -> bool:
    """Deterministic initial phase of ``var`` under ``seed`` (0 = False).

    A cheap avalanche over (var, seed): the same pair always yields the
    same polarity, and different seeds flip roughly half the variables —
    the diversification the ladder's reseed rung needs without any RNG
    state.
    """
    if seed == 0:
        return False
    # Combine with + (not ^): carries let the seed perturb every bit
    # position differently per variable, where a plain XOR would reduce
    # the seed's contribution to one global polarity flip.  Two
    # multiply-shift rounds finish the avalanche (Murmur3-style).
    mixed = (var * _PHASE_HASH_VAR + seed * _PHASE_HASH_SEED) & 0xFFFFFFFF
    mixed = ((mixed ^ (mixed >> 16)) * 0x45D9F3B) & 0xFFFFFFFF
    mixed = ((mixed ^ (mixed >> 16)) * 0x45D9F3B) & 0xFFFFFFFF
    return bool((mixed ^ (mixed >> 16)) & 1)


def luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence.

    Uses the MiniSat formulation: locate the finite subsequence that
    contains position ``i``, then recurse into it iteratively.
    """
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x %= size
    return 1 << seq


class CDCLSolver:
    """A reusable CDCL instance over a growing clause set."""

    def __init__(
        self,
        num_vars: int,
        *,
        stats: SolverStatistics | None = None,
        max_conflicts: int | None = None,
        max_propagations: int | None = None,
        deadline: float | None = None,
        decision_seed: int = 0,
    ) -> None:
        self.stats = stats or SolverStatistics()
        self.max_conflicts = max_conflicts
        self.max_propagations = max_propagations
        self.deadline = deadline
        # Perturbs only the *initial* decision phases (phase saving takes
        # over after the first assignment); seed 0 keeps the historical
        # all-False start so existing traces stay byte-identical.
        self.decision_seed = decision_seed

        self._clauses: list[list[int]] = []
        self._watches: dict[int, list[int]] = {}
        self._values: list[int] = [_UNASSIGNED] * (num_vars + 1)
        self._levels: list[int] = [0] * (num_vars + 1)
        self._reasons: list[int] = [-1] * (num_vars + 1)
        self._phases: list[bool] = [
            seeded_phase(v, decision_seed) for v in range(num_vars + 1)
        ]
        self._activity: list[float] = [0.0] * (num_vars + 1)
        self._activity_inc = 1.0
        # Order heap of decision candidates; _heap_pos[v] is v's slot in
        # _heap, or -1 when v is not in it.  Every unassigned variable is
        # in the heap; assigned ones may linger until popped.
        self._heap: list[int] = []
        self._heap_pos: list[int] = [-1] * (num_vars + 1)
        for var in range(1, num_vars + 1):
            self._heap_insert(var)
        self._trail: list[int] = []
        self._trail_limits: list[int] = []
        self._queue_head = 0
        self._num_vars = num_vars
        self._conflicts_this_solve = 0
        self._propagations_this_solve = 0
        self._root_unsat = False
        self._assumption_floor = 0
        self._model: dict[int, bool] = {}
        # Learned-clause database management: low-activity learned clauses
        # are tombstoned once the database outgrows its (growing) cap.
        self._learned_indices: list[int] = []
        self._clause_activity: dict[int, float] = {}
        self._clause_activity_inc = 1.0
        self._max_learned = 4000
        # Optional clausal proof log (attach before adding clauses).  Input
        # clauses are recorded pre-pruning so the log stands on its own;
        # learned clauses, theory lemmas, and deletions follow in database
        # order.  See repro.solver.proof.
        self.proof: ProofLog | None = None

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------

    def ensure_vars(self, num_vars: int) -> None:
        """Grow internal arrays so variables up to ``num_vars`` exist."""
        while self._num_vars < num_vars:
            self._num_vars += 1
            self._values.append(_UNASSIGNED)
            self._levels.append(0)
            self._reasons.append(-1)
            self._phases.append(seeded_phase(self._num_vars, self.decision_seed))
            self._activity.append(0.0)
            self._heap_pos.append(-1)
            self._heap_insert(self._num_vars)

    def add_clause(
        self,
        lits: tuple[int, ...] | list[int],
        *,
        theory_premise: Premise | None = None,
    ) -> bool:
        """Add a clause; returns False when it makes the problem trivially unsat.

        Must be called at decision level 0 (between solves).
        ``theory_premise`` marks the clause as a theory lemma and records
        the T-inconsistent assignment it excludes in the proof log.
        """
        if self._trail_limits:
            raise SolverError("add_clause called mid-solve")
        unique = sorted(set(lits), key=abs)
        # Sorted by variable, a complementary pair sits side by side.
        for i in range(1, len(unique)):
            if unique[i] == -unique[i - 1]:
                return True  # tautology
        if self.proof is not None:
            # Log the clause before level-0 pruning: the checker re-derives
            # the pruning by unit propagation, so the log needs the original.
            if theory_premise is not None:
                self.proof.log_theory(unique, theory_premise)
            else:
                self.proof.log_input(unique)
        if unique and abs(unique[-1]) > self._num_vars:
            self.ensure_vars(abs(unique[-1]))
        # Remove literals already false at level 0; detect satisfied clauses.
        values = self._values
        levels = self._levels
        pruned: list[int] = []
        for lit in unique:
            var = abs(lit)
            val = values[var]
            if val != _UNASSIGNED and levels[var] == 0:
                if (val == _TRUE) == (lit > 0):
                    return True
                continue
            pruned.append(lit)
        if not pruned:
            self._root_unsat = True
            return False
        if len(pruned) == 1:
            ok = self._assign_root(pruned[0])
            if not ok:
                self._root_unsat = True
            return ok
        index = len(self._clauses)
        self._clauses.append(pruned)
        self._watch(pruned[0], index)
        self._watch(pruned[1], index)
        self.stats.clauses += 1
        return True

    def _watch(self, lit: int, clause_index: int) -> None:
        self._watches.setdefault(lit, []).append(clause_index)

    def _assign_root(self, lit: int) -> bool:
        val = self._value(lit)
        if val == _TRUE:
            return True
        if val == _FALSE:
            return False
        self._enqueue(lit, reason=-1)
        return True

    # ------------------------------------------------------------------
    # Assignment machinery
    # ------------------------------------------------------------------

    def _value(self, lit: int) -> int:
        val = self._values[abs(lit)]
        if val == _UNASSIGNED:
            return _UNASSIGNED
        return val if lit > 0 else -val

    @property
    def _level(self) -> int:
        return len(self._trail_limits)

    def _enqueue(self, lit: int, reason: int) -> None:
        var = abs(lit)
        self._values[var] = _TRUE if lit > 0 else _FALSE
        self._levels[var] = self._level
        self._reasons[var] = reason
        self._phases[var] = lit > 0
        self._trail.append(lit)

    def _propagate(self) -> int:
        """Unit propagation; returns the index of a conflicting clause or -1."""
        while self._queue_head < len(self._trail):
            lit = self._trail[self._queue_head]
            self._queue_head += 1
            self._propagations_this_solve += 1
            self.stats.propagations += 1
            if (
                self.max_propagations is not None
                and self._propagations_this_solve > self.max_propagations
            ):
                raise BudgetExceededError(
                    "propagation budget exhausted", UnknownCause.PROPAGATIONS
                )
            # The deadline also has to be honoured *inside* a propagation
            # pass: a single implication chain can run arbitrarily long
            # before control returns to _check_budgets in the outer loop.
            if (
                self.deadline is not None
                and self._propagations_this_solve % 1024 == 0
                and time.monotonic() > self.deadline
            ):
                raise BudgetExceededError(
                    "wall-clock timeout", UnknownCause.WALL_CLOCK
                )
            false_lit = -lit
            watching = self._watches.get(false_lit)
            if not watching:
                continue
            kept: list[int] = []
            conflict = -1
            i = 0
            while i < len(watching):
                ci = watching[i]
                i += 1
                clause = self._clauses[ci]
                if clause is None:
                    continue  # tombstoned learned clause: drop the watch
                # Ensure false_lit sits at position 1.
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) == _TRUE:
                    kept.append(ci)
                    continue
                # Find a new watch.
                moved = False
                for j in range(2, len(clause)):
                    if self._value(clause[j]) != _FALSE:
                        clause[1], clause[j] = clause[j], clause[1]
                        self._watch(clause[1], ci)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(ci)
                if self._value(first) == _FALSE:
                    conflict = ci
                    kept.extend(watching[i:])
                    break
                self._enqueue(first, reason=ci)
            self._watches[false_lit] = kept
            if conflict >= 0:
                return conflict
        return -1

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------

    def _bump(self, var: int) -> None:
        self._activity[var] += self._activity_inc
        if self._activity[var] > _ACTIVITY_RESCALE:
            for v in range(1, self._num_vars + 1):
                self._activity[v] *= 1.0 / _ACTIVITY_RESCALE
            self._activity_inc *= 1.0 / _ACTIVITY_RESCALE
            self._heap_rebuild()
        elif self._heap_pos[var] >= 0:
            self._sift_up(self._heap_pos[var])

    def _analyze(self, conflict_index: int) -> tuple[list[int], int]:
        """1UIP analysis: learned clause and backjump level."""
        learned: list[int] = [0]  # placeholder for the asserting literal
        seen = [False] * (self._num_vars + 1)
        counter = 0
        lit = 0
        index = len(self._trail) - 1
        clause = self._clauses[conflict_index]
        while True:
            for q in clause:
                var = abs(q)
                if q != lit and not seen[var] and self._levels[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self._levels[var] >= self._level:
                        counter += 1
                    else:
                        learned.append(q)
            # Walk the trail backwards to the next marked literal.
            while not seen[abs(self._trail[index])]:
                index -= 1
            lit = self._trail[index]
            var = abs(lit)
            seen[var] = False
            counter -= 1
            index -= 1
            if counter == 0:
                break
            reason = self._reasons[var]
            # The reason clause contains ``lit`` itself; the q != lit guard
            # in the loop above skips it so the variable is not re-marked.
            clause = self._clauses[reason] if reason >= 0 else []
            if reason >= 0 and reason in self._clause_activity:
                self._bump_clause(reason)
        learned[0] = -lit
        if len(learned) == 1:
            return learned, 0
        # Backjump to the second-highest decision level in the clause.
        back_level = max(self._levels[abs(q)] for q in learned[1:])
        # Put a literal of back_level at position 1 for watching.
        for j in range(1, len(learned)):
            if self._levels[abs(learned[j])] == back_level:
                learned[1], learned[j] = learned[j], learned[1]
                break
        return learned, back_level

    def _bump_clause(self, index: int) -> None:
        self._clause_activity[index] = (
            self._clause_activity.get(index, 0.0) + self._clause_activity_inc
        )
        if self._clause_activity[index] > _ACTIVITY_RESCALE:
            for ci in self._clause_activity:
                self._clause_activity[ci] *= 1.0 / _ACTIVITY_RESCALE
            self._clause_activity_inc *= 1.0 / _ACTIVITY_RESCALE

    def _reduce_learned_db(self) -> None:
        """Tombstone the less active half of the learned-clause database.

        Clauses currently serving as reasons for assigned variables and
        short (binary) clauses are kept; the cap grows geometrically so the
        database still scales with genuinely hard instances.
        """
        protected = {r for r in self._reasons if r >= 0}
        candidates = [
            ci
            for ci in self._learned_indices
            if self._clauses[ci] is not None
            and ci not in protected
            and len(self._clauses[ci]) > 2
        ]
        if len(candidates) < self._max_learned // 2:
            self._max_learned = int(self._max_learned * 1.3)
            return
        candidates.sort(key=lambda ci: self._clause_activity.get(ci, 0.0))
        for ci in candidates[: len(candidates) // 2]:
            if self.proof is not None:
                self.proof.log_delete(self._clauses[ci])
            self._clauses[ci] = None
            self._clause_activity.pop(ci, None)
        self._learned_indices = [
            ci for ci in self._learned_indices if self._clauses[ci] is not None
        ]
        self._max_learned = int(self._max_learned * 1.1)

    def _backtrack(self, level: int) -> None:
        if self._level <= level:
            return
        limit = self._trail_limits[level]
        values = self._values
        reasons = self._reasons
        heap_pos = self._heap_pos
        for lit in reversed(self._trail[limit:]):
            var = abs(lit)
            values[var] = _UNASSIGNED
            reasons[var] = -1
            if heap_pos[var] < 0:
                self._heap_insert(var)
        del self._trail[limit:]
        del self._trail_limits[level:]
        self._queue_head = len(self._trail)

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def _decide(self) -> int:
        """Pick the unassigned variable with the highest activity, or 0.

        Ties go to the lowest variable index.  Assigned variables popped
        on the way are dropped; ``_backtrack`` puts them back.
        """
        heap = self._heap
        values = self._values
        while heap:
            var = self._heap_pop()
            if values[var] == _UNASSIGNED:
                return var if self._phases[var] else -var
        return 0

    # ------------------------------------------------------------------
    # Order heap (binary max-heap on activity, then lower index)
    # ------------------------------------------------------------------

    def _heap_insert(self, var: int) -> None:
        self._heap_pos[var] = len(self._heap)
        self._heap.append(var)
        self._sift_up(len(self._heap) - 1)

    def _heap_pop(self) -> int:
        heap = self._heap
        top = heap[0]
        last = heap.pop()
        self._heap_pos[top] = -1
        if heap:
            heap[0] = last
            self._heap_pos[last] = 0
            self._sift_down(0)
        return top

    def _heap_rebuild(self) -> None:
        for i in range(len(self._heap) // 2 - 1, -1, -1):
            self._sift_down(i)

    def _sift_up(self, i: int) -> None:
        heap = self._heap
        pos = self._heap_pos
        activity = self._activity
        var = heap[i]
        act = activity[var]
        while i > 0:
            parent = (i - 1) >> 1
            above = heap[parent]
            above_act = activity[above]
            if above_act > act or (above_act == act and above < var):
                break
            heap[i] = above
            pos[above] = i
            i = parent
        heap[i] = var
        pos[var] = i

    def _sift_down(self, i: int) -> None:
        heap = self._heap
        pos = self._heap_pos
        activity = self._activity
        size = len(heap)
        var = heap[i]
        act = activity[var]
        while True:
            child = 2 * i + 1
            if child >= size:
                break
            below = heap[child]
            below_act = activity[below]
            right = child + 1
            if right < size:
                other = heap[right]
                other_act = activity[other]
                if other_act > below_act or (
                    other_act == below_act and other < below
                ):
                    child, below, below_act = right, other, other_act
            if act > below_act or (act == below_act and var < below):
                break
            heap[i] = below
            pos[below] = i
            i = child
        heap[i] = var
        pos[var] = i

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def solve(self, assumptions: tuple[int, ...] = ()) -> SatResult:
        """CDCL search under ``assumptions``; leaves the trail at level 0.

        Raises :class:`BudgetExceededError` when a budget is exhausted; the
        caller converts that into an UNKNOWN result.
        """
        if self._root_unsat:
            return SatResult.UNSAT
        self._conflicts_this_solve = 0
        self._propagations_this_solve = 0
        self._backtrack(0)
        self._assumption_floor = 0
        try:
            return self._search(assumptions)
        finally:
            self._backtrack(0)

    def model(self) -> dict[int, bool]:
        """Assignment of the last SAT answer (valid right after solve)."""
        return dict(self._model)

    def _check_budgets(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceededError("wall-clock timeout", UnknownCause.WALL_CLOCK)
        if (
            self.max_conflicts is not None
            and self._conflicts_this_solve > self.max_conflicts
        ):
            raise BudgetExceededError(
                "conflict budget exhausted", UnknownCause.CONFLICTS
            )

    def _place_assumptions(self, assumptions: tuple[int, ...]) -> SatResult | None:
        """Propagate at level 0, then stack assumptions as pseudo-decisions.

        Returns UNSAT when the assumptions are already contradicted, None
        when search should proceed.
        """
        if self._propagate() >= 0:
            # A level-0 conflict holds under any assumptions.  Remember it:
            # the next solve resumes propagation past the conflicting
            # assignments and would not see it again.
            self._root_unsat = True
            return SatResult.UNSAT
        for lit in assumptions:
            self.ensure_vars(abs(lit))
            val = self._value(lit)
            if val == _FALSE:
                return SatResult.UNSAT
            if val == _UNASSIGNED:
                self._trail_limits.append(len(self._trail))
                self._enqueue(lit, reason=-1)
                if self._propagate() >= 0:
                    return SatResult.UNSAT
        self._assumption_floor = self._level
        return None

    def _search(self, assumptions: tuple[int, ...]) -> SatResult:
        self._model: dict[int, bool] = {}
        restarts = 0
        conflicts_until_restart = _RESTART_BASE * luby(restarts + 1)
        conflict_count_local = 0

        early = self._place_assumptions(assumptions)
        if early is not None:
            return early

        while True:
            self._check_budgets()
            conflict = self._propagate()
            if conflict >= 0:
                self._conflicts_this_solve += 1
                self.stats.conflicts += 1
                conflict_count_local += 1
                if self._level <= self._assumption_floor:
                    # Conflict at or below the assumption levels: the clause
                    # set (under these assumptions) is unsatisfiable, and
                    # at level 0 under any assumptions.
                    if self._level == 0:
                        self._root_unsat = True
                    return SatResult.UNSAT
                learned, back_level = self._analyze(conflict)
                learned = _faults.mutate("cdcl.learned_clause", learned)
                if self.proof is not None:
                    # Log after the mutation seam: the proof must describe
                    # the clause the search actually uses, or a corrupted
                    # clause could pass the replay.
                    self.proof.log_learn(learned)
                back_level = max(back_level, self._assumption_floor)
                self._backtrack(back_level)
                if len(learned) == 1 and back_level == 0:
                    self._enqueue(learned[0], reason=-1)
                elif len(learned) == 1:
                    self._enqueue(learned[0], reason=-1)
                else:
                    index = len(self._clauses)
                    self._clauses.append(learned)
                    self._watch(learned[0], index)
                    self._watch(learned[1], index)
                    self.stats.learned_clauses += 1
                    self._learned_indices.append(index)
                    self._bump_clause(index)
                    self._enqueue(learned[0], reason=index)
                self._activity_inc /= _ACTIVITY_DECAY
                self._clause_activity_inc /= _ACTIVITY_DECAY
                continue

            if conflict_count_local >= conflicts_until_restart:
                conflict_count_local = 0
                restarts += 1
                self.stats.restarts += 1
                conflicts_until_restart = _RESTART_BASE * luby(restarts + 1)
                self._backtrack(self._assumption_floor)
                if len(self._learned_indices) > self._max_learned:
                    self._reduce_learned_db()
                    self.stats.db_reductions += 1
                continue

            decision = self._decide()
            if decision == 0:
                self._model = _faults.mutate(
                    "cdcl.model",
                    {
                        v: self._values[v] == _TRUE
                        for v in range(1, self._num_vars + 1)
                    },
                )
                return SatResult.SAT
            self.stats.decisions += 1
            self._trail_limits.append(len(self._trail))
            self._enqueue(decision, reason=-1)
