"""Unit tests for Phase 3: translation, subgraph, encoding, verification."""

import pytest

from repro.core.encode import EncodedQuery, encode_query
from repro.core.graphs import PolicyGraph
from repro.core.hierarchy import Taxonomy
from repro.core.parameters import annotate
from repro.core.subgraph import extract_subgraph
from repro.core.translation import translate_query_terms, translate_term
from repro.core.verify import Verdict, verify_encoded
from repro.embeddings.store import EmbeddingStore
from repro.fol import DATA, ENTITY, Constant, PredicateSymbol, Variable, forall, negate
from repro.llm.tasks import ExtractedParameters
from repro.smtlib.parser import execute_script


def _practice(sender, action, data_type, receiver=None, condition=None, permission=True, seg="s1"):
    return annotate(
        ExtractedParameters(
            sender=sender,
            receiver=receiver,
            subject="user",
            data_type=data_type,
            action=action,
            condition=condition,
            permission=permission,
        ),
        segment_id=seg,
    )


@pytest.fixture()
def graph():
    taxonomy = Taxonomy(root="data")
    taxonomy.add("contact information", "data")
    taxonomy.add("email", "contact information")
    taxonomy.add("phone number", "contact information")
    taxonomy.add("location", "data")
    g = PolicyGraph("Acme", data_taxonomy=taxonomy)
    g.add_practices(
        [
            _practice("acme", "collect", "email"),
            _practice("acme", "share", "contact information", receiver="advertisers",
                      condition="with your consent"),
            _practice("acme", "collect", "location"),
            _practice("acme", "sell", "email", permission=False),
            _practice("user", "provide", "phone number"),
        ]
    )
    return g


def _query(sender, action, data_type, receiver=None):
    return ExtractedParameters(
        sender=sender,
        receiver=receiver,
        subject="user",
        data_type=data_type,
        action=action,
        condition=None,
        permission=True,
    )


class TestTranslation:
    def _store(self, terms):
        store = EmbeddingStore()
        store.add_many(terms)
        return store

    def test_exact_match_identity(self, runner):
        store = self._store(["email", "location"])
        result = translate_term(runner, store, "email")
        assert result.translated == "email"
        assert result.verified

    def test_variant_translated(self, runner):
        store = self._store(["email", "location"])
        result = translate_term(runner, store, "email address")
        assert result.translated == "email"
        assert result.verified and result.changed

    def test_vocabulary_restriction(self, runner):
        store = self._store(["email", "user provide email"])
        result = translate_term(runner, store, "email address", vocabulary={"email"})
        assert result.translated == "email"

    def test_unrelated_term_kept(self, runner):
        store = self._store(["email", "location"])
        result = translate_term(runner, store, "favourite colour")
        assert result.translated == "favourite colour"
        assert not result.verified

    def test_translate_many(self, runner):
        store = self._store(["email"])
        results = translate_query_terms(runner, store, ["email address", ""])
        assert list(results) == ["email address"]


class TestSubgraph:
    def test_direct_match(self, graph):
        sub = extract_subgraph(graph, ["email"], [])
        targets = {e.target for e in sub.edges}
        assert "email" in targets

    def test_hierarchy_closure_pulls_parent_edges(self, graph):
        sub = extract_subgraph(graph, ["email"], [])
        targets = {e.target for e in sub.edges}
        assert "contact information" in targets  # parent in closure

    def test_hierarchy_disabled(self, graph):
        sub = extract_subgraph(graph, ["email"], [], use_hierarchy=False)
        targets = {e.target for e in sub.edges}
        assert "contact information" not in targets

    def test_hierarchy_edges_listed(self, graph):
        sub = extract_subgraph(graph, ["email"], [])
        assert ("contact information", "email") in sub.hierarchy_edges

    def test_max_edges_cap(self, graph):
        sub = extract_subgraph(graph, ["email"], [], max_edges=1)
        assert sub.num_edges == 1

    def test_entity_only_query(self, graph):
        sub = extract_subgraph(graph, [], ["advertisers"])
        assert sub.num_edges >= 1

    def test_irrelevant_term_empty(self, graph):
        sub = extract_subgraph(graph, ["blood type"], [])
        assert sub.num_edges == 0


class TestEncoding:
    def test_unconditional_edge_is_fact(self, graph):
        sub = extract_subgraph(graph, ["location"], [])
        encoded = encode_query(sub, _query("acme", "collect", "location"))
        assert encoded.num_policy_formulas >= 1
        assert not encoded.uninterpreted

    def test_condition_becomes_uninterpreted(self, graph):
        sub = extract_subgraph(graph, ["contact information"], [])
        encoded = encode_query(sub, _query("acme", "share", "contact information"))
        assert "user_consent" in encoded.uninterpreted

    def test_hierarchy_axioms_quantified(self, graph):
        sub = extract_subgraph(graph, ["email"], [])
        encoded = encode_query(
            sub, _query("acme", "collect", "email"), include_hierarchy_axioms=True
        )
        from repro.fol.formula import Forall
        from repro.fol.visitor import subformulas

        has_forall = any(
            isinstance(s, Forall)
            for f in encoded.policy_formulas
            for s in subformulas(f)
        )
        assert has_forall

    def test_hierarchy_axioms_can_be_disabled(self, graph):
        sub = extract_subgraph(graph, ["email"], [], use_hierarchy=False)
        encoded = encode_query(
            sub, _query("acme", "collect", "email"), include_hierarchy_axioms=False
        )
        from repro.fol.formula import Forall
        from repro.fol.visitor import subformulas

        assert not any(
            isinstance(s, Forall)
            for f in encoded.policy_formulas
            for s in subformulas(f)
        )

    def test_generic_sender_becomes_existential(self, graph):
        sub = extract_subgraph(graph, ["email"], [])
        encoded = encode_query(sub, _query("anyone", "collect", "email"))
        from repro.fol.formula import Exists

        assert isinstance(encoded.query_formula, Exists)

    def test_constants_deduplicated(self, graph):
        sub = extract_subgraph(graph, ["email"], [])
        encoded = encode_query(sub, _query("acme", "collect", "email"))
        names = [c.name for c in encoded.data_constants.values()]
        assert len(names) == len(set(names))


class TestVerify:
    def test_stated_fact_is_valid(self, graph):
        sub = extract_subgraph(graph, ["location"], [])
        encoded = encode_query(sub, _query("acme", "collect", "location"))
        result = verify_encoded(encoded)
        assert result.verdict is Verdict.VALID
        assert result.policy_consistent is True

    def test_absent_fact_is_invalid(self, graph):
        sub = extract_subgraph(graph, ["location"], [])
        encoded = encode_query(sub, _query("acme", "sell", "location"))
        result = verify_encoded(encoded)
        assert result.verdict is Verdict.INVALID

    def test_conditional_fact_invalid_but_conditionally_valid(self, graph):
        sub = extract_subgraph(graph, ["contact information"], [])
        encoded = encode_query(sub, _query("acme", "share", "contact information"))
        result = verify_encoded(encoded)
        assert result.verdict is Verdict.INVALID
        assert result.conditionally_valid is True
        assert "user_consent" in result.depends_on

    def test_hierarchy_inference_valid(self, graph):
        # Sharing contact information (conditionally) implies, under consent,
        # sharing its subtype email via the inheritance axiom.
        sub = extract_subgraph(graph, ["email"], [])
        encoded = encode_query(sub, _query("acme", "share", "email"))
        result = verify_encoded(encoded)
        assert result.verdict is Verdict.INVALID  # gated on consent
        assert result.conditionally_valid is True

    def test_denied_fact_stays_invalid(self, graph):
        sub = extract_subgraph(graph, ["email"], [])
        encoded = encode_query(sub, _query("acme", "sell", "email"))
        result = verify_encoded(encoded)
        assert result.verdict is Verdict.INVALID
        assert result.conditionally_valid is False  # denial survives conditions

    def test_contradictory_policy_detected(self):
        g = PolicyGraph("Acme")
        g.add_practices(
            [
                _practice("acme", "share", "email"),
                _practice("acme", "share", "email", permission=False, seg="s2"),
            ]
        )
        sub = extract_subgraph(g, ["email"], [])
        encoded = encode_query(sub, _query("acme", "share", "email"))
        result = verify_encoded(encoded)
        assert result.verdict is Verdict.UNKNOWN
        assert result.policy_consistent is False

    @pytest.mark.parametrize("certify", [True, False])
    def test_contradiction_over_a_query_constant_is_not_valid(self, certify):
        # The policy contradicts itself only once `email` is in the
        # universe, and only the query brings it there.  The VALID is
        # vacuous, so the consistency check must judge the policy over
        # the validity check's universe, not over the policy's own.
        tiktak = Constant("tiktak", ENTITY)
        y = Variable("y", DATA)
        collect = PredicateSymbol("collect", (ENTITY, DATA))
        encoded = EncodedQuery(
            policy_formulas=[
                forall(y, collect(tiktak, y)),
                forall(y, negate(collect(tiktak, y))),
            ],
            query_formula=collect(tiktak, Constant("email", DATA)),
        )
        result = verify_encoded(encoded, certify=certify)
        assert result.verdict is Verdict.UNKNOWN
        assert result.policy_consistent is False
        assert (result.certificate is not None) is certify

    @pytest.mark.parametrize(
        "term, action, verdict",
        [
            ("location", "collect", Verdict.VALID),
            ("contact information", "share", Verdict.INVALID),
        ],
    )
    def test_each_assertion_grounded_once_per_question(
        self, graph, monkeypatch, term, action, verdict
    ):
        # The follow-up check (consistency for VALID, the vague-condition
        # check for INVALID) reuses the validity check's clauses.
        import repro.solver.interface as interface

        grounded = []
        real_ground = interface.ground

        def spy(formula, *args, **kwargs):
            grounded.append(formula)
            return real_ground(formula, *args, **kwargs)

        encoded = encode_query(
            extract_subgraph(graph, [term], []), _query("acme", action, term)
        )
        monkeypatch.setattr(interface, "ground", spy)
        result = verify_encoded(encoded)
        assert result.verdict is verdict
        assert (result.policy_consistent, result.conditionally_valid) != (None, None)
        assert len(grounded) == len(encoded.policy_formulas) + 1

    def test_statistics_describe_the_validity_check_alone(self, graph):
        encoded = encode_query(
            extract_subgraph(graph, ["location"], []), _query("acme", "collect", "location")
        )
        result = verify_encoded(encoded)
        assert result.policy_consistent is True  # a follow-up check ran
        (alone,) = execute_script(result.smtlib_text)
        got = result.solver_result.statistics.as_dict()
        expected = alone.statistics.as_dict()
        got.pop("solve_time_seconds")
        expected.pop("solve_time_seconds")
        assert got == expected

    @pytest.mark.parametrize(
        "term, action", [("location", "collect"), ("contact information", "share")]
    )
    def test_only_the_validity_check_is_certified(self, graph, monkeypatch, term, action):
        from repro.solver.interface import Solver

        certified = []
        real_certify = Solver._certify

        def spy(self, verdict, *args):
            certified.append(verdict)
            return real_certify(self, verdict, *args)

        monkeypatch.setattr(Solver, "_certify", spy)
        encoded = encode_query(
            extract_subgraph(graph, [term], []), _query("acme", action, term)
        )
        result = verify_encoded(encoded, certify=True)
        assert (result.policy_consistent, result.conditionally_valid) != (None, None)
        assert len(certified) == 1
        assert result.certificate.certified

    def test_smtlib_text_attached(self, graph):
        sub = extract_subgraph(graph, ["location"], [])
        encoded = encode_query(sub, _query("acme", "collect", "location"))
        result = verify_encoded(encoded)
        assert "(check-sat)" in result.smtlib_text

    def test_summary_mentions_vague_terms(self, graph):
        sub = extract_subgraph(graph, ["contact information"], [])
        encoded = encode_query(sub, _query("acme", "share", "contact information"))
        result = verify_encoded(encoded)
        assert "user_consent" in result.summary()


class TestCounterexampleAndSerialization:
    def test_counterexample_names_falsified_condition(self, graph, runner):
        sub = extract_subgraph(graph, ["contact information"], [])
        encoded = encode_query(sub, _query("acme", "share", "contact information"))
        result = verify_encoded(encoded)
        assert result.verdict is Verdict.INVALID
        assert result.counterexample.get("user_consent") is False

    def test_counterexample_empty_for_valid(self, graph):
        sub = extract_subgraph(graph, ["location"], [])
        encoded = encode_query(sub, _query("acme", "collect", "location"))
        result = verify_encoded(encoded)
        assert result.verdict is Verdict.VALID
        assert result.counterexample == {}

    def test_summary_mentions_counterexample(self, graph):
        sub = extract_subgraph(graph, ["contact information"], [])
        encoded = encode_query(sub, _query("acme", "share", "contact information"))
        result = verify_encoded(encoded)
        assert "counterexample resolves these to false:" in result.summary()

    def test_verification_as_dict_round_trips_json(self, graph):
        import json

        sub = extract_subgraph(graph, ["contact information"], [])
        encoded = encode_query(sub, _query("acme", "share", "contact information"))
        result = verify_encoded(encoded)
        parsed = json.loads(json.dumps(result.as_dict()))
        assert parsed["verdict"] == "INVALID"
        assert parsed["conditionally_valid"] is True
        assert "user_consent" in parsed["depends_on"]


class TestQueryOutcomeSerialization:
    def test_as_dict_json_safe(self, pipeline, small_model):
        import json

        outcome = pipeline.query(small_model, "Acme collects the name.")
        parsed = json.loads(json.dumps(outcome.as_dict()))
        assert parsed["question"] == "Acme collects the name."
        assert parsed["verification"]["verdict"] == "VALID"
        assert parsed["subgraph_edges"] >= 1
