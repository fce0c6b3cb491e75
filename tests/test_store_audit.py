"""Invariant auditor: structure checks, parity vs rebuild, healing.

The parity suite is the paper's "update only those branches" promise made
testable: for every edit mix ``corpus.versions.make_version`` can
produce, an in-place patched model must be indistinguishable — graph
edges, both taxonomies, vocabulary, and query verdicts — from a model
rebuilt from scratch on the same extraction.
"""

from __future__ import annotations

import pytest

from repro import PolicyPipeline
from repro.corpus.versions import make_version
from repro.store import audit_parity, audit_structure, heal_model


def rebuild_twin(pipeline, patched):
    """From-scratch model over the patched model's extraction."""
    rebuilt = pipeline._build_model(patched.extraction)
    rebuilt.revision = patched.revision
    return rebuilt


class TestStructureAudit:
    def test_fresh_model_passes(self, small_model):
        report = audit_structure(small_model)
        assert report.passed, report.summary()
        assert "embedding-index-sync" in report.checks_run

    def test_patched_model_passes(self, pipeline, small_policy_text):
        model = pipeline.process(small_policy_text)
        version = make_version(small_policy_text, seed=0)
        pipeline.update(model, version.text, in_place=True)
        report = audit_structure(model)
        assert report.passed, report.summary()

    def test_catches_vocabulary_drift(self, pipeline, small_policy_text):
        model = pipeline.process(small_policy_text)
        model.node_vocabulary = set(model.node_vocabulary) | {"phantom term"}
        report = audit_structure(model)
        assert not report.passed
        assert any(f.check == "vocabulary-sync" for f in report.findings)

    def test_catches_embedding_index_drift(self, pipeline, small_policy_text):
        # The `_index_graph_embeddings` drift class: a graph element whose
        # vector never made it into the store.
        from repro.embeddings import EmbeddingStore

        model = pipeline.process(small_policy_text)
        victim = model.graph.nodes()[0]
        partial = EmbeddingStore(model.store.model)
        partial.add_many([k for k in model.store.keys if k != victim])
        model.store = partial
        report = audit_structure(model)
        assert any(f.check == "embedding-index-sync" for f in report.findings)

    def test_catches_phantom_edge(self, pipeline, small_policy_text):
        from repro.core.graphs import PracticeEdge

        model = pipeline.process(small_policy_text)
        model.graph.restore_edges(
            [
                PracticeEdge(
                    source="Acme",
                    action="collect",
                    target="shoe size",
                    receiver=None,
                    condition=None,
                    permission=True,
                    segment_id="seg-999",
                )
            ]
        )
        report = audit_structure(model)
        checks = {f.check for f in report.findings}
        assert "edge-practice-parity" in checks
        assert "edge-provenance" in checks

    def test_report_serializes(self, small_model):
        report = audit_structure(small_model)
        payload = report.as_dict()
        assert payload["kind"] == "structure"
        assert payload["passed"] is True


class TestParityAudit:
    @pytest.mark.parametrize(
        "seed,add,remove,recondition",
        [
            (0, 2, 2, 2),  # the default mixed edit
            (1, 3, 0, 0),  # pure additions
            (2, 0, 3, 0),  # pure removals
            (3, 0, 0, 3),  # pure reconditioning
            (4, 1, 1, 0),  # add + remove
            (5, 0, 1, 1),  # remove + recondition
        ],
    )
    def test_in_place_update_matches_rebuild(
        self, small_policy_text, seed, add, remove, recondition
    ):
        pipeline = PolicyPipeline()
        model = pipeline.process(small_policy_text)
        version = make_version(
            small_policy_text,
            seed=seed,
            add=add,
            remove=remove,
            recondition=recondition,
        )
        pipeline.update(model, version.text, in_place=True)
        report = audit_parity(model, rebuild_twin(pipeline, model))
        assert report.passed, report.summary()

    def test_chained_updates_keep_parity(self, small_policy_text):
        pipeline = PolicyPipeline()
        model = pipeline.process(small_policy_text)
        text = small_policy_text
        for seed in (0, 1, 2):
            text = make_version(text, seed=seed).text
            pipeline.update(model, text, in_place=True)
        report = audit_parity(model, rebuild_twin(pipeline, model))
        assert report.passed, report.summary()

    def test_query_verdicts_match_rebuild(self, small_policy_text):
        pipeline = PolicyPipeline()
        model = pipeline.process(small_policy_text)
        version = make_version(small_policy_text, seed=0)
        pipeline.update(model, version.text, in_place=True)
        rebuilt = rebuild_twin(pipeline, model)
        for question in (
            "Acme collects the email address.",
            "Acme sells your contact information.",
            "Acme shares usage information with analytics providers.",
            "Acme collects your shoe size.",
        ):
            patched_verdict = pipeline.query(model, question).verdict
            rebuilt_verdict = pipeline.query(rebuilt, question).verdict
            assert patched_verdict == rebuilt_verdict, question

    def test_detects_seeded_drift(self, small_policy_text):
        # A deliberately buggy patch (one that skips re-inducing the
        # taxonomies and so keeps stale nodes) must be caught.
        pipeline = PolicyPipeline()
        model = pipeline.process(small_policy_text)
        version = make_version(small_policy_text, seed=0, add=0, remove=2)
        saved = pipeline._rebuild_taxonomies
        pipeline._rebuild_taxonomies = lambda model: None  # seed the bug
        try:
            pipeline.update(model, version.text, in_place=True)
        finally:
            pipeline._rebuild_taxonomies = saved
        report = audit_parity(model, rebuild_twin(pipeline, model))
        assert not report.passed
        assert any(
            f.check in ("data_taxonomy", "entity_taxonomy")
            for f in report.findings
        )


class TestHeal:
    def test_heal_restores_parity_in_place(self, small_policy_text):
        pipeline = PolicyPipeline()
        model = pipeline.process(small_policy_text)
        version = make_version(small_policy_text, seed=0)
        saved = pipeline._rebuild_taxonomies
        pipeline._rebuild_taxonomies = lambda model: None
        try:
            pipeline.update(model, version.text, in_place=True)
        finally:
            pipeline._rebuild_taxonomies = saved
        rebuilt = rebuild_twin(pipeline, model)
        revision = model.revision
        reference = model  # callers keep references to the patched object
        heal_model(model, rebuilt)
        assert audit_parity(model, rebuilt).passed
        assert model is reference
        assert model.revision == revision

    def test_drift_after_removal_is_found_and_healed(self, small_policy_text):
        class BuggyPipeline(PolicyPipeline):
            def _rebuild_taxonomies(self, model):
                pass  # drift: stale taxonomy survives segment removal

        pipeline = BuggyPipeline()
        model = pipeline.process(small_policy_text)
        version = make_version(small_policy_text, seed=0, add=0, remove=2)
        pipeline.update(model, version.text, in_place=True)
        rebuilt = rebuild_twin(pipeline, model)
        report = audit_parity(model, rebuilt)
        assert not report.passed and report.findings
        heal_model(model, rebuilt)
        # After the heal the model is indistinguishable from a rebuild.
        assert audit_parity(model, rebuild_twin(pipeline, model)).passed
