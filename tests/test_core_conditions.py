"""Unit tests for structured condition expressions."""

import pytest

from repro.core.conditions import (
    ConditionAnd,
    ConditionAtom,
    ConditionOr,
    atoms_of,
    describe,
    parse_condition,
)


class TestParseCondition:
    def test_single_atom(self):
        expr = parse_condition("with your consent")
        assert isinstance(expr, ConditionAtom)
        assert expr.predicate == "user_consent"

    def test_unrecognized_atom_gets_mangled_name(self):
        expr = parse_condition("if you enable the night mode")
        assert isinstance(expr, ConditionAtom)
        assert expr.predicate.startswith("cond_")

    def test_disjunction(self):
        expr = parse_condition("with your consent or when required by law")
        assert isinstance(expr, ConditionOr)
        names = [a.predicate for a in atoms_of(expr)]
        assert names == ["user_consent", "required_by_law"]

    def test_conjunction(self):
        expr = parse_condition(
            "with your consent AND when required by law"
        )
        assert isinstance(expr, ConditionAnd)

    def test_or_binds_looser_than_and(self):
        expr = parse_condition("a1 and b2 or c3")
        assert isinstance(expr, ConditionOr)
        left, right = expr.operands
        assert isinstance(left, ConditionAnd)
        assert isinstance(right, ConditionAtom)

    def test_uppercase_connectives(self):
        expr = parse_condition("with your consent OR for security purposes")
        assert isinstance(expr, ConditionOr)

    def test_describe(self):
        text = describe(parse_condition("with your consent or when required by law"))
        assert text == "(user_consent OR required_by_law)"


class TestEncodingIntegration:
    def test_disjunctive_condition_either_branch_unlocks(self):
        from repro.core.encode import encode_query
        from repro.core.graphs import PolicyGraph
        from repro.core.parameters import annotate
        from repro.core.subgraph import extract_subgraph
        from repro.fol.builder import negate
        from repro.fol.formula import PredicateSymbol
        from repro.llm.tasks import ExtractedParameters
        from repro.solver import Solver

        practice = annotate(
            ExtractedParameters(
                sender="acme",
                receiver="advertisers",
                subject="user",
                data_type="email",
                action="share",
                condition="with your consent or when required by law",
                permission=True,
            ),
            segment_id="s1",
        )
        graph = PolicyGraph("Acme")
        graph.add_practice(practice)
        sub = extract_subgraph(graph, ["email"], [])
        query = ExtractedParameters(
            sender="acme",
            receiver=None,
            subject="user",
            data_type="email",
            action="share",
            condition=None,
            permission=True,
        )
        encoded = encode_query(sub, query)
        assert {"user_consent", "required_by_law"} <= set(encoded.uninterpreted)

        solver = Solver()
        for formula in encoded.policy_formulas:
            solver.assert_formula(formula)
        solver.assert_formula(negate(encoded.query_formula))

        consent = PredicateSymbol("user_consent", (), uninterpreted=True)()
        law = PredicateSymbol("required_by_law", (), uninterpreted=True)()
        # Either disjunct alone forces the practice (and refutes ¬query).
        assert solver.check_sat_assuming([consent]).is_unsat
        assert solver.check_sat_assuming([law]).is_unsat
        # With both false the query does not follow.
        from repro.fol.builder import negate as neg

        assert solver.check_sat_assuming([neg(consent), neg(law)]).is_sat

    def test_corpus_compound_conditions_survive_pipeline(self, pipeline):
        from repro.corpus.generator import GeneratorProfile, PolicyGenerator

        doc = PolicyGenerator(
            GeneratorProfile(company="CondCo", platform="CondCo", seed=5)
        ).generate(3000)
        assert "with your consent or when required by law" in doc.text
        model = pipeline.process(doc.text)
        compound = [
            e
            for e in model.graph.edges()
            if e.condition and " or " in e.condition
        ]
        assert compound
