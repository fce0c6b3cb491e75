"""Unit tests for the CDCL SAT core."""

import random
from collections import Counter

import pytest

from repro.errors import BudgetExceededError, UnknownCause
from repro.solver.result import SatResult
from repro.solver.sat import CDCLSolver, luby


class TestLuby:
    def test_prefix(self):
        assert [luby(i) for i in range(1, 10)] == [1, 1, 2, 1, 1, 2, 4, 1, 1]


class TestBasicSolving:
    def test_empty_problem_is_sat(self):
        assert CDCLSolver(0).solve() is SatResult.SAT

    def test_single_unit_clause(self):
        solver = CDCLSolver(1)
        solver.add_clause((1,))
        assert solver.solve() is SatResult.SAT
        assert solver.model()[1] is True

    def test_contradictory_units(self):
        solver = CDCLSolver(1)
        solver.add_clause((1,))
        solver.add_clause((-1,))
        assert solver.solve() is SatResult.UNSAT

    def test_implication_chain(self):
        solver = CDCLSolver(3)
        solver.add_clause((-1, 2))
        solver.add_clause((-2, 3))
        solver.add_clause((1,))
        assert solver.solve() is SatResult.SAT
        model = solver.model()
        assert model[1] and model[2] and model[3]

    def test_pigeonhole_2_in_1_unsat(self):
        # Two pigeons, one hole.
        solver = CDCLSolver(2)
        solver.add_clause((1,))
        solver.add_clause((2,))
        solver.add_clause((-1, -2))
        assert solver.solve() is SatResult.UNSAT

    def test_tautology_ignored(self):
        solver = CDCLSolver(1)
        assert solver.add_clause((1, -1))
        assert solver.solve() is SatResult.SAT

    def test_duplicate_literals_deduped(self):
        solver = CDCLSolver(1)
        solver.add_clause((1, 1, 1))
        assert solver.solve() is SatResult.SAT
        assert solver.model()[1] is True


class TestNontrivialInstances:
    def test_php_3_pigeons_2_holes(self):
        """Pigeonhole principle: 3 pigeons in 2 holes is UNSAT."""
        solver = CDCLSolver(6)
        # var(p, h) = 2*p + h + 1 for p in 0..2, h in 0..1
        def v(p, h):
            return 2 * p + h + 1

        for p in range(3):
            solver.add_clause((v(p, 0), v(p, 1)))
        for h in range(2):
            for p1 in range(3):
                for p2 in range(p1 + 1, 3):
                    solver.add_clause((-v(p1, h), -v(p2, h)))
        assert solver.solve() is SatResult.UNSAT
        assert solver.stats.conflicts >= 1

    def test_graph_coloring_sat(self):
        """Triangle is 3-colorable."""
        solver = CDCLSolver(9)
        # var(node, color) = 3*node + color + 1
        def v(n, c):
            return 3 * n + c + 1

        for n in range(3):
            solver.add_clause(tuple(v(n, c) for c in range(3)))
            for c1 in range(3):
                for c2 in range(c1 + 1, 3):
                    solver.add_clause((-v(n, c1), -v(n, c2)))
        for a, b in [(0, 1), (1, 2), (0, 2)]:
            for c in range(3):
                solver.add_clause((-v(a, c), -v(b, c)))
        assert solver.solve() is SatResult.SAT
        model = solver.model()
        colors = [next(c for c in range(3) if model[v(n, c)]) for n in range(3)]
        assert len(set(colors)) == 3

    def test_triangle_not_2_colorable(self):
        solver = CDCLSolver(6)

        def v(n, c):
            return 2 * n + c + 1

        for n in range(3):
            solver.add_clause(tuple(v(n, c) for c in range(2)))
            solver.add_clause((-v(n, 0), -v(n, 1)))
        for a, b in [(0, 1), (1, 2), (0, 2)]:
            for c in range(2):
                solver.add_clause((-v(a, c), -v(b, c)))
        assert solver.solve() is SatResult.UNSAT


class TestAssumptions:
    def _make(self):
        solver = CDCLSolver(3)
        solver.add_clause((-1, 2))  # 1 -> 2
        solver.add_clause((-2, 3))  # 2 -> 3
        return solver

    def test_assumption_propagates(self):
        solver = self._make()
        assert solver.solve((1,)) is SatResult.SAT
        assert solver.model()[3] is True

    def test_conflicting_assumptions(self):
        solver = self._make()
        assert solver.solve((1, -3)) is SatResult.UNSAT

    def test_solver_reusable_after_assumptions(self):
        solver = self._make()
        assert solver.solve((1, -3)) is SatResult.UNSAT
        assert solver.solve((1,)) is SatResult.SAT
        assert solver.solve() is SatResult.SAT

    def test_root_conflict_stays_unsat_under_later_assumptions(self):
        # The conflict only shows when level 0 is propagated, which moves
        # the propagation queue past it; a later solve must not forget it.
        solver = CDCLSolver(3)
        solver.add_clause((-1, 2))
        solver.add_clause((-1, -2))
        solver.add_clause((1,))
        assert solver.solve() is SatResult.UNSAT
        assert solver.solve() is SatResult.UNSAT
        assert solver.solve((3,)) is SatResult.UNSAT

    def test_assumption_of_unknown_var_grows_solver(self):
        solver = self._make()
        assert solver.solve((10,)) is SatResult.SAT
        assert solver.model()[10] is True


class TestBudgets:
    def _hard_instance(self, n=8):
        """PHP(n+1, n): exponentially hard for resolution-based solvers."""
        solver = CDCLSolver(
            (n + 1) * n, max_conflicts=20, max_propagations=None
        )

        def v(p, h):
            return p * n + h + 1

        for p in range(n + 1):
            solver.add_clause(tuple(v(p, h) for h in range(n)))
        for h in range(n):
            for p1 in range(n + 1):
                for p2 in range(p1 + 1, n + 1):
                    solver.add_clause((-v(p1, h), -v(p2, h)))
        return solver

    def test_conflict_budget_raises(self):
        solver = self._hard_instance()
        with pytest.raises(BudgetExceededError) as info:
            solver.solve()
        assert info.value.cause is UnknownCause.CONFLICTS

    def test_propagation_budget_raises(self):
        solver = CDCLSolver(3, max_propagations=1)
        solver.add_clause((1,))
        solver.add_clause((-1, 2))
        solver.add_clause((-2, 3))
        with pytest.raises(BudgetExceededError) as info:
            solver.solve()
        assert info.value.cause is UnknownCause.PROPAGATIONS

    def test_deadline_in_past_raises(self):
        solver = CDCLSolver(2, deadline=0.0)
        solver.add_clause((1, 2))
        with pytest.raises(BudgetExceededError) as info:
            solver.solve()
        assert info.value.cause is UnknownCause.WALL_CLOCK


class TestStatistics:
    def test_counters_increase(self):
        solver = CDCLSolver(3)
        solver.add_clause((1, 2))
        solver.add_clause((-1, 2))
        solver.add_clause((1, -2))
        solver.solve()
        assert solver.stats.propagations > 0


class TestLearnedClauseDBReduction:
    def _php(self, pigeons, holes, max_learned):
        solver = CDCLSolver(pigeons * holes)
        solver._max_learned = max_learned

        def v(p, h):
            return p * holes + h + 1

        for p in range(pigeons):
            solver.add_clause(tuple(v(p, h) for h in range(holes)))
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    solver.add_clause((-v(p1, h), -v(p2, h)))
        return solver

    def test_reduction_triggered_and_answer_correct(self):
        solver = self._php(8, 7, max_learned=50)
        assert solver.solve() is SatResult.UNSAT
        assert solver.stats.db_reductions > 0
        assert solver.stats.learned_clauses > solver._max_learned

    def test_reduction_keeps_sat_answers_correct(self):
        # Graph coloring: SAT instance, aggressive cap.
        solver = CDCLSolver(30)
        solver._max_learned = 4

        def v(node, color):
            return 3 * node + color + 1

        edges = [(a, b) for a in range(10) for b in range(a + 1, 10) if (a + b) % 3]
        for node in range(10):
            solver.add_clause(tuple(v(node, c) for c in range(3)))
            for c1 in range(3):
                for c2 in range(c1 + 1, 3):
                    solver.add_clause((-v(node, c1), -v(node, c2)))
        for a, b in edges:
            for c in range(3):
                solver.add_clause((-v(a, c), -v(b, c)))
        result = solver.solve()
        if result is SatResult.SAT:
            model = solver.model()
            for a, b in edges:
                ca = next(c for c in range(3) if model[v(a, c)])
                cb = next(c for c in range(3) if model[v(b, c)])
                assert ca != cb

    def test_solver_reusable_after_reduction(self):
        solver = self._php(8, 7, max_learned=50)
        assert solver.solve() is SatResult.UNSAT
        # The root-level refutation persists across solves.
        assert solver.solve() is SatResult.UNSAT


class TestSeededPhases:
    """VSIDS decision-seed phases (what the ladder's reseed rung varies)."""

    def test_seed_zero_is_the_legacy_all_false_policy(self):
        from repro.solver.sat import seeded_phase

        assert all(not seeded_phase(v, 0) for v in range(200))

    def test_seeded_phases_are_deterministic_and_diverse(self):
        from repro.solver.sat import seeded_phase

        for seed in (1, 2, 3, 17):
            first = [seeded_phase(v, seed) for v in range(200)]
            again = [seeded_phase(v, seed) for v in range(200)]
            assert first == again
            # A useful diversification seed flips a real fraction of
            # phases — neither all-False (seed 0's policy) nor all-True.
            flipped = sum(first)
            assert 20 < flipped < 180
        assert [seeded_phase(v, 1) for v in range(200)] != [
            seeded_phase(v, 2) for v in range(200)
        ]

    def test_seed_zero_solver_trace_is_byte_identical_to_default(self):
        def php(seed):
            solver = CDCLSolver(12, decision_seed=seed)
            def v(p, h):
                return 3 * p + h + 1
            for p in range(4):
                solver.add_clause(tuple(v(p, h) for h in range(3)))
            for h in range(3):
                for p1 in range(4):
                    for p2 in range(p1 + 1, 4):
                        solver.add_clause((-v(p1, h), -v(p2, h)))
            solver.solve()
            return solver.stats.as_dict()

        default = CDCLSolver(12)
        assert default._phases == CDCLSolver(12, decision_seed=0)._phases
        assert php(0) == php(0)

    def test_nonzero_seed_changes_the_search_not_the_answer(self):
        for seed in (0, 1, 2, 3):
            solver = CDCLSolver(6, decision_seed=seed)
            solver.add_clause((1, 2))
            solver.add_clause((-1, 3))
            solver.add_clause((-2, -3, 4))
            assert solver.solve() is SatResult.SAT
            model = solver.model()
            assert model[1] or model[2]


class _TracingSolver(CDCLSolver):
    """Records every decision literal the search makes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.decision_trace: list[int] = []
        self.heap_rebuilds = 0

    def _decide(self) -> int:
        lit = self._pick()
        if lit:
            self.decision_trace.append(lit)
        return lit

    def _pick(self) -> int:
        return CDCLSolver._decide(self)

    def _heap_rebuild(self) -> None:
        self.heap_rebuilds += 1
        super()._heap_rebuild()


class _LinearScanSolver(_TracingSolver):
    """Reference decision rule: scan every variable, keep the first with
    the strictly highest activity (the rule the order heap replaced)."""

    def _pick(self) -> int:
        best_var = 0
        best_act = -1.0
        for var in range(1, self._num_vars + 1):
            if self._values[var] == 0 and self._activity[var] > best_act:
                best_var = var
                best_act = self._activity[var]
        if best_var == 0:
            return 0
        return best_var if self._phases[best_var] else -best_var


def _random_3sat(rng, num_vars, ratio=4.26):
    clauses = []
    for _ in range(int(num_vars * ratio)):
        chosen = rng.sample(range(1, num_vars + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return clauses


def _run_both(build, drive):
    """Build and drive a heap solver and a linear-scan solver alike and
    return both observations (decisions, statistics, answers, proof,
    heap rebuilds)."""
    from repro.solver.proof import ProofLog

    seen = []
    for cls in (_TracingSolver, _LinearScanSolver):
        solver = build(cls)
        solver.proof = ProofLog()
        answers = drive(solver)
        seen.append(
            (
                solver.decision_trace,
                solver.stats.as_dict(),
                answers,
                list(solver.proof.events),
                solver.heap_rebuilds,
            )
        )
    return seen


class TestOrderHeapDecisions:
    """The order heap makes exactly the linear scan's decisions."""

    def _cnf_solver(self, clauses, num_vars, seed, max_learned):
        def build(cls):
            solver = cls(num_vars, decision_seed=seed)
            solver._max_learned = max_learned
            return solver

        def drive(solver):
            for clause in clauses:
                solver.add_clause(clause)
            answers = []
            for assumptions in ((), (1, -2), (3,), ()):
                verdict = solver.solve(assumptions)
                model = solver.model() if verdict is SatResult.SAT else None
                answers.append((verdict, model))
            return answers

        return build, drive

    @pytest.mark.parametrize("decision_seed", [0, 1, 2])
    def test_random_3sat_matches_linear_scan(self, decision_seed):
        rng = random.Random(1000 + decision_seed)
        totals = Counter()
        for _ in range(12):
            num_vars = rng.randint(40, 70)
            clauses = _random_3sat(rng, num_vars)
            build, drive = self._cnf_solver(clauses, num_vars, decision_seed, 30)
            heap, linear = _run_both(build, drive)
            assert heap == linear
            totals.update(heap[1])
        # The instances must exercise the whole search, not just decisions.
        assert totals["conflicts"] > 500
        assert totals["restarts"] > 0
        assert totals["db_reductions"] > 0

    def test_forced_activity_rescales_match_linear_scan(self, monkeypatch):
        import repro.solver.sat as sat_module

        monkeypatch.setattr(sat_module, "_ACTIVITY_RESCALE", 50.0)
        rng = random.Random(7)
        rebuilds = 0
        for _ in range(6):
            num_vars = rng.randint(40, 60)
            clauses = _random_3sat(rng, num_vars)
            build, drive = self._cnf_solver(clauses, num_vars, 0, 4000)
            heap, linear = _run_both(build, drive)
            assert heap == linear
            rebuilds += heap[4]
        assert rebuilds > 0

    def test_rescale_that_rounds_activities_into_a_tie(self):
        # The rescale multiplies by 1e-100, which underflows every
        # denormal activity below to 0.0: variables 2..5 end up tied and
        # must then be decided in index order.  A heap that only sifted
        # the bumped variable up would keep its stale order and decide
        # variable 3 before variable 2.
        decisions = []
        for cls in (_TracingSolver, _LinearScanSolver):
            solver = cls(5)
            for var, act in enumerate((3e-320, 1.5e-320, 0.0, 3e-320, 0.0), 1):
                solver._activity[var] = act
            solver._heap_rebuild()
            solver._activity_inc = 2e100
            solver._bump(1)
            assert solver._activity[2:] == [0.0] * 4
            assert solver.solve() is SatResult.SAT
            decisions.append(solver.decision_trace)
        assert decisions[0] == decisions[1] == [-1, -2, -3, -4, -5]

    def test_theory_lemmas_between_rounds_match_linear_scan(self):
        from repro.fol.formula import PredicateSymbol
        from repro.fol.terms import Constant, FunctionSymbol, Sort
        from repro.solver.cnf import atom_key
        from repro.solver.literals import AtomPool
        from repro.solver.theory import solve_with_theory

        rng = random.Random(11)
        sort = Sort("S")
        constants = [Constant(name, sort) for name in "abcde"]
        eq = PredicateSymbol("=", (sort, sort))
        p, q = PredicateSymbol("p", (sort,)), PredicateSymbol("q", (sort,))
        f = FunctionSymbol("f", (sort,), sort)
        atoms = [eq(x, y) for x in constants for y in constants if x.name < y.name]
        atoms += [p(x) for x in constants] + [q(f(x)) for x in constants]
        theory_conflicts = 0
        for _ in range(10):
            clauses = [
                tuple(
                    (atom, rng.random() < 0.5)
                    for atom in rng.sample(atoms, rng.randint(1, 3))
                )
                for _ in range(rng.randint(25, 45))
            ]

            def build(cls):
                return cls(0)

            def drive(solver):
                pool = AtomPool()
                for clause in clauses:
                    solver.add_clause(
                        tuple(
                            pool.variable_for(atom_key(atom), atom)
                            * (1 if positive else -1)
                            for atom, positive in clause
                        )
                    )
                solver.ensure_vars(pool.count)
                verdict = solve_with_theory(solver, pool)
                model = solver.model() if verdict is SatResult.SAT else None
                return verdict, model

            heap, linear = _run_both(build, drive)
            assert heap == linear
            theory_conflicts += heap[1]["theory_conflicts"]
        assert theory_conflicts > 0
