"""Tests for the in-place incremental model update path."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.extraction
import repro.core.pipeline
from repro import PolicyPipeline, Verdict
from repro.core.segmenter import segment_policy
from repro.corpus.versions import make_version
from repro.core.hierarchy import Taxonomy, extend_taxonomy


class TestExtendTaxonomy:
    def test_new_terms_placed(self, runner):
        taxonomy = Taxonomy(root="data")
        taxonomy.add("personal data", "data")
        taxonomy.add("email", "personal data")
        added = extend_taxonomy(runner, taxonomy, ["phone number", "ip address"])
        assert added == 2
        assert taxonomy.parent("phone number") == "personal data"
        assert "ip address" in taxonomy

    def test_existing_terms_untouched(self, runner):
        taxonomy = Taxonomy(root="data")
        taxonomy.add("custom category", "data")
        taxonomy.add("email", "custom category")
        extend_taxonomy(runner, taxonomy, ["email", "email address"])
        # "email" keeps its unusual manual placement.
        assert taxonomy.parent("email") == "custom category"
        # the new specialization attaches under the existing node.
        assert taxonomy.parent("email address") == "email"

    def test_unknown_terms_attach_to_root(self, runner):
        taxonomy = Taxonomy(root="data")
        extend_taxonomy(runner, taxonomy, ["quizzblat"])
        assert taxonomy.parent("quizzblat") == "data"

    def test_returns_zero_for_no_new_terms(self, runner):
        taxonomy = Taxonomy(root="data")
        taxonomy.add("email", "data")
        assert extend_taxonomy(runner, taxonomy, ["email"]) == 0


class TestInPlaceUpdate:
    def _fresh(self, pipeline, small_policy_text):
        return pipeline.process(small_policy_text)

    def test_equivalent_to_rebuild(self, small_policy_text):
        pipeline = PolicyPipeline()
        edited = small_policy_text + "\nWe collect your shoe size.\n"

        rebuilt_model, _ = pipeline.update(
            pipeline.process(small_policy_text), edited
        )
        patched_model, _ = pipeline.update(
            pipeline.process(small_policy_text), edited, in_place=True
        )
        assert (
            patched_model.statistics.total_edges
            == rebuilt_model.statistics.total_edges
        )
        assert set(patched_model.graph.graph.nodes) == set(
            rebuilt_model.graph.graph.nodes
        )

    @settings(max_examples=12, deadline=None)
    @given(seeds=st.lists(st.integers(0, 10_000), min_size=1, max_size=3))
    def test_update_segments_once_and_matches_fresh_segmentation(
        self, small_policy_text, seeds
    ):
        pipeline = PolicyPipeline()
        model = pipeline.process(small_policy_text)
        calls = []

        def counted(text):
            calls.append(text)
            return segment_policy(text)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(repro.core.pipeline, "segment_policy", counted)
            mp.setattr(repro.core.extraction, "segment_policy", counted)
            for seed in seeds:
                text = make_version(small_policy_text, seed=seed).text
                calls.clear()
                model, _ = pipeline.update(model, text, in_place=True)
                assert calls == [text]
                assert model.extraction.segments == segment_policy(text)

    def test_mutates_input_model(self, small_policy_text):
        pipeline = PolicyPipeline()
        model = pipeline.process(small_policy_text)
        edited = small_policy_text + "\nWe collect your shoe size.\n"
        patched, _stats = pipeline.update(model, edited, in_place=True)
        assert patched is model
        assert "shoe size" in model.graph.graph

    def test_removed_segment_edges_dropped(self, small_policy_text):
        pipeline = PolicyPipeline()
        model = pipeline.process(small_policy_text)
        assert "message content" in model.graph.graph
        shortened = small_policy_text.replace(
            "If you contact customer support, we collect your message content. ", ""
        ).replace("We delete your message content after 90 days.", "")
        pipeline.update(model, shortened, in_place=True)
        assert "message content" not in model.graph.graph

    def test_new_vocabulary_enters_taxonomy_and_store(self, small_policy_text):
        pipeline = PolicyPipeline()
        model = pipeline.process(small_policy_text)
        edited = small_policy_text + "\nWe collect your blood pressure readings.\n"
        pipeline.update(model, edited, in_place=True)
        assert "blood pressure reading" in model.data_taxonomy
        assert "blood pressure reading" in model.store
        assert "blood pressure reading" in model.node_vocabulary

    def test_query_after_in_place_update(self, small_policy_text):
        pipeline = PolicyPipeline()
        model = pipeline.process(small_policy_text)
        edited = small_policy_text + "\nWe collect your shoe size.\n"
        pipeline.update(model, edited, in_place=True)
        outcome = pipeline.query(model, "Acme collects the shoe size.")
        assert outcome.verdict is Verdict.VALID

    def test_noop_in_place_update(self, small_policy_text):
        pipeline = PolicyPipeline()
        model = pipeline.process(small_policy_text)
        edges_before = model.statistics.total_edges
        _patched, stats = pipeline.update(model, small_policy_text, in_place=True)
        assert stats.segments_reextracted == 0
        assert model.statistics.total_edges == edges_before


class TestPatchBuildParity:
    """Both update paths must index identical embedding-store entries.

    Regression guard: the in-place path used to build edge text from raw
    practice fields (missing derived ``receive`` edges), so a patched model
    could translate and answer queries differently from a rebuilt one.
    """

    EDIT = (
        "\nWe share your purchase history with marketing partners."
        "\nWe collect your shoe size.\n"
    )

    def _models(self, small_policy_text):
        edited = small_policy_text + self.EDIT
        pipeline = PolicyPipeline()
        rebuilt, _ = pipeline.update(pipeline.process(small_policy_text), edited)
        patched, _ = pipeline.update(
            pipeline.process(small_policy_text), edited, in_place=True
        )
        return pipeline, rebuilt, patched

    def test_store_entries_identical(self, small_policy_text):
        _pipeline, rebuilt, patched = self._models(small_policy_text)
        assert set(patched.store.keys) == set(rebuilt.store.keys)
        assert patched.node_vocabulary == rebuilt.node_vocabulary

    def test_derived_receive_edge_text_indexed(self, small_policy_text):
        from repro.embeddings.search import edge_text

        _pipeline, rebuilt, patched = self._models(small_policy_text)
        derived = [e for e in patched.graph.edges() if e.derived]
        assert derived, "edit should materialize a derived receive edge"
        for edge in derived:
            key = edge_text(edge.source, edge.action, edge.target)
            assert key in patched.store
            assert key in rebuilt.store

    def test_queries_answered_identically(self, small_policy_text):
        pipeline, rebuilt, patched = self._models(small_policy_text)
        questions = [
            "Acme collects the shoe size.",
            "Marketing partners receive the purchase history.",
            "Acme shares the location information with advertisers.",
            "Acme sells contact information to third parties.",
        ]
        for question in questions:
            a = pipeline.query(rebuilt, question).as_dict()
            b = pipeline.query(patched, question).as_dict()
            assert a == b, f"divergent answers for {question!r}"

    def test_removed_vocabulary_pruned_like_rebuild(self, small_policy_text):
        pipeline = PolicyPipeline()
        shortened = small_policy_text.replace(
            "If you contact customer support, we collect your message content. ", ""
        ).replace("We delete your message content after 90 days.", "")
        rebuilt, _ = pipeline.update(pipeline.process(small_policy_text), shortened)
        patched, _ = pipeline.update(
            pipeline.process(small_policy_text), shortened, in_place=True
        )
        assert patched.node_vocabulary == rebuilt.node_vocabulary
        assert "message content" not in patched.node_vocabulary
