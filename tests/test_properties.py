"""Property-based tests (hypothesis) for core data structures and invariants.

Each property pins a semantic guarantee the rest of the system leans on:
logical equivalence of simplification passes, CDCL agreement with brute
force, grounding semantics, taxonomy tree invariants, segmentation/diff
algebra, and morphology idempotence.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hierarchy import Taxonomy
from repro.core.segmenter import Segment, diff_segments, segment_policy
from repro.fol.formula import (
    And,
    FalseFormula,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Predicate,
    PredicateSymbol,
    TrueFormula,
)
from repro.fol.simplify import simplify, to_nnf
from repro.fol.visitor import collect_predicates
from repro.nlp.morphology import lemmatize_verb, singularize_noun
from repro.solver.cnf import tseitin
from repro.solver.literals import AtomPool
from repro.solver.result import SatResult
from repro.solver.sat import CDCLSolver

# ---------------------------------------------------------------------------
# Random propositional formulas over a small atom vocabulary
# ---------------------------------------------------------------------------

_ATOMS = [PredicateSymbol(name)() for name in ("p0", "p1", "p2", "p3")]


def _formulas(depth: int = 3) -> st.SearchStrategy[Formula]:
    base = st.sampled_from(_ATOMS + [TrueFormula(), FalseFormula()])

    def extend(children: st.SearchStrategy[Formula]) -> st.SearchStrategy[Formula]:
        return st.one_of(
            st.builds(Not, children),
            st.builds(lambda a, b: And((a, b)), children, children),
            st.builds(lambda a, b: Or((a, b)), children, children),
            st.builds(Implies, children, children),
            st.builds(Iff, children, children),
        )

    return st.recursive(base, extend, max_leaves=12)


def _clause_shaped_formulas() -> st.SearchStrategy[Formula]:
    """Conjunctions of formulas that each say one clause over ``_ATOMS``."""
    atom = st.sampled_from(_ATOMS)
    literal = st.one_of(atom, atom.map(Not), atom.map(lambda a: Not(Not(a))))
    some = st.lists(literal, min_size=1, max_size=3).map(tuple)
    side = st.one_of(literal, some.map(And))
    clause = st.one_of(
        literal,
        some.map(Or),
        st.builds(Implies, side, st.one_of(literal, some.map(Or))),
        some.map(lambda lits: Not(And(lits))),
    )
    clause = st.one_of(clause, clause.map(lambda c: Not(Not(c))))
    return st.one_of(
        clause, st.lists(clause, min_size=1, max_size=4).map(tuple).map(And)
    )


def _evaluate(formula: Formula, assignment: dict[str, bool]) -> bool:
    if isinstance(formula, TrueFormula):
        return True
    if isinstance(formula, FalseFormula):
        return False
    if isinstance(formula, Predicate):
        return assignment[formula.symbol.name]
    if isinstance(formula, Not):
        return not _evaluate(formula.operand, assignment)
    if isinstance(formula, And):
        return all(_evaluate(op, assignment) for op in formula.operands)
    if isinstance(formula, Or):
        return any(_evaluate(op, assignment) for op in formula.operands)
    if isinstance(formula, Implies):
        return (not _evaluate(formula.antecedent, assignment)) or _evaluate(
            formula.consequent, assignment
        )
    if isinstance(formula, Iff):
        return _evaluate(formula.left, assignment) == _evaluate(
            formula.right, assignment
        )
    raise TypeError(formula)


def _all_assignments(formula: Formula):
    names = sorted({s.name for s in collect_predicates(formula)})
    for bits in itertools.product([False, True], repeat=len(names)):
        yield dict(zip(names, bits))


class TestSimplifyProperties:
    @given(_formulas())
    @settings(max_examples=200, deadline=None)
    def test_simplify_preserves_truth_table(self, formula):
        # simplify() may drop atoms, never add them, so the original
        # formula's assignments cover the simplified formula too.
        simplified = simplify(formula)
        for assignment in _all_assignments(formula):
            assert _evaluate(formula, assignment) == _evaluate(simplified, assignment)

    @given(_formulas())
    @settings(max_examples=200, deadline=None)
    def test_nnf_preserves_truth_table(self, formula):
        nnf = to_nnf(formula)
        for assignment in _all_assignments(formula):
            assert _evaluate(formula, assignment) == _evaluate(nnf, assignment)

    @given(_formulas())
    @settings(max_examples=100, deadline=None)
    def test_simplify_idempotent(self, formula):
        once = simplify(formula)
        assert simplify(once) == once

    @given(_formulas())
    @settings(max_examples=100, deadline=None)
    def test_nnf_has_no_implications(self, formula):
        from repro.fol.visitor import subformulas

        nnf = to_nnf(formula)
        for sub in subformulas(nnf):
            assert not isinstance(sub, (Implies, Iff))
            if isinstance(sub, Not):
                assert isinstance(sub.operand, Predicate)


class TestSATProperties:
    @given(_formulas())
    @settings(max_examples=150, deadline=None)
    def test_cdcl_agrees_with_truth_table(self, formula):
        expected = any(
            _evaluate(formula, a) for a in _all_assignments(formula)
        ) or not collect_predicates(formula) and _evaluate(formula, {})
        pool = AtomPool()
        clauses = tseitin(formula, pool)
        solver = CDCLSolver(pool.count)
        for clause in clauses:
            solver.add_clause(clause)
        got = solver.solve() is SatResult.SAT
        assert got == expected

    @given(_formulas())
    @settings(max_examples=80, deadline=None)
    def test_sat_model_satisfies_formula(self, formula):
        pool = AtomPool()
        clauses = tseitin(formula, pool)
        solver = CDCLSolver(pool.count)
        for clause in clauses:
            solver.add_clause(clause)
        if solver.solve() is SatResult.SAT:
            raw = solver.model()
            assignment = {
                key: raw.get(var, False) for key, var in pool.named_atoms().items()
            }
            # Atoms never mentioned default to False.
            for sym in collect_predicates(formula):
                assignment.setdefault(sym.name, False)
            assert _evaluate(formula, assignment)

    @given(_clause_shaped_formulas())
    @settings(max_examples=200, deadline=None)
    def test_clause_shaped_formula_is_its_own_clauses(self, formula):
        """Equivalence, not just equisatisfiability: no definitions."""
        pool = AtomPool()
        clauses = tseitin(formula, pool)
        assert pool.count == len(pool.named_atoms())
        for assignment in _all_assignments(formula):
            holds = all(
                any(assignment[pool.key_for(abs(lit))] == (lit > 0) for lit in clause)
                for clause in clauses
            )
            assert holds == _evaluate(formula, assignment)


class TestTaxonomyProperties:
    @given(st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_random_tree_invariants(self, parents):
        """Attach node i under a uniformly chosen earlier node: always a tree."""
        taxonomy = Taxonomy(root="root")
        names = ["root"]
        for i, p in enumerate(parents):
            parent = names[p % len(names)]
            name = f"n{i}"
            taxonomy.add(name, parent)
            names.append(name)
        taxonomy.validate()
        assert len(taxonomy) == len(parents) + 1
        for name in names[1:]:
            ancestors = taxonomy.ancestors(name)
            assert ancestors[-1] == "root"
            assert taxonomy.depth(name) == len(ancestors)
        # descendants/ancestors are inverse relations
        for name in names[1:]:
            for desc in taxonomy.descendants(name):
                assert name in taxonomy.ancestors(desc)


class TestSegmenterProperties:
    _sentences = st.lists(
        st.sampled_from(
            [
                "We collect your email address.",
                "We share usage data with partners.",
                "We retain logs for ninety days.",
                "You may provide your name.",
                "We delete inactive accounts.",
                "We disclose records to regulators.",
            ]
        ),
        min_size=0,
        max_size=6,
        unique=True,
    )

    @given(_sentences, _sentences)
    @settings(max_examples=100, deadline=None)
    def test_diff_partition(self, old_sents, new_sents):
        old = segment_policy(" ".join(old_sents))
        new = segment_policy(" ".join(new_sents))
        diff = diff_segments(old, new)
        # added + unchanged exactly covers the new version
        new_ids = {s.segment_id for s in new}
        assert {s.segment_id for s in diff.added} | {
            s.segment_id for s in diff.unchanged
        } == new_ids
        assert {s.segment_id for s in diff.added} & {
            s.segment_id for s in diff.unchanged
        } == set()
        # removed is disjoint from the new version
        assert all(s.segment_id not in new_ids for s in diff.removed)

    @given(st.text(min_size=0, max_size=120))
    @settings(max_examples=100, deadline=None)
    def test_segment_ids_deterministic(self, text):
        assert Segment.compute_id(text) == Segment.compute_id(text)
        assert len(Segment.compute_id(text)) == 16


class TestMorphologyProperties:
    _words = st.text(alphabet="abcdefghilmnoprstu", min_size=3, max_size=10)

    @given(_words)
    @settings(max_examples=150, deadline=None)
    def test_singularize_idempotent(self, word):
        once = singularize_noun(word)
        assert singularize_noun(once) == once

    @given(_words)
    @settings(max_examples=150, deadline=None)
    def test_lemmatize_converges_and_shrinks(self, word):
        # Repeated lemmatization reaches a fixpoint quickly (each pass
        # strips at most one suffix) and never grows the word by more than
        # the restored final 'e'.
        current = word
        for _ in range(6):
            after = lemmatize_verb(current)
            if after == current:
                break
            assert len(after) <= len(current) + 1
            current = after
        assert lemmatize_verb(current) == current
        assert current
