"""Tests for the in-place incremental model update path."""

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.extraction
import repro.core.pipeline
from repro import PolicyPipeline, Verdict
from repro.core.segmenter import segment_policy
from repro.corpus.versions import make_version
from repro.corpus import meditrack_policy
from repro.nlp.tokenizer import sentences
from repro.store.serialize import model_artifacts


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
        assert set(patched_model.graph.nodes()) == set(rebuilt_model.graph.nodes())

    @settings(max_examples=12, deadline=None)
    @given(seeds=st.lists(st.integers(0, 10_000), min_size=1, max_size=3))
    def test_update_segments_once_and_matches_fresh_segmentation(
        self, small_policy_text, seeds
    ):
        pipeline = PolicyPipeline()
        model = pipeline.process(small_policy_text)
        calls = []

        def counted(text, *reuse):
            calls.append(text)
            return segment_policy(text, *reuse)

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
        assert model.graph.has_node("shoe size")

    def test_removed_segment_edges_dropped(self, small_policy_text):
        pipeline = PolicyPipeline()
        model = pipeline.process(small_policy_text)
        assert model.graph.has_node("message content")
        shortened = small_policy_text.replace(
            "If you contact customer support, we collect your message content. ", ""
        ).replace("We delete your message content after 90 days.", "")
        pipeline.update(model, shortened, in_place=True)
        assert not model.graph.has_node("message content")

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


def _chain_revision(base: str, r: int) -> str:
    """Revision ``r`` of a MediTrack chain: ``make_version`` edits, plus a
    structural edit on some steps that section labels and indices see."""
    lines = make_version(base, seed=r).text.splitlines()
    if r == 4:  # a heading moves below its own paragraph
        at = lines.index("5. Data Retention")
        lines[at], lines[at + 1] = lines[at + 1], lines[at]
    if r == 7:  # a sentence also opens an earlier line
        first = sentences(lines[lines.index("3. How We Use Your Information") + 1])[0]
        at = lines.index("2. Automatically Collected Information") + 1
        lines[at] = first + " " + lines[at]
    if r in (12, 13):  # a line that becomes a heading on the next step
        at = lines.index("7. Data Security") + 1
        lines.insert(at, "8. Questions and requests." if r == 12 else "8. Questions and Requests")
    return "\n".join(lines) + "\n"


def _fields(segments):
    return [dataclasses.astuple(segment) for segment in segments]


class TestSegmentationReuseChain:
    """Twenty in-place updates of MediTrack reuse each revision's line
    splits, and segment exactly like a from-scratch split at every step."""

    def test_chain_segments_like_scratch(self, tmp_path, monkeypatch):
        import repro.core.segmenter as segmenter

        base = meditrack_policy().text
        pipeline = PolicyPipeline()
        model = pipeline.process(base)
        assert model.extraction.line_splits
        bare = pipeline.process(base)  # updated with its memo emptied
        split_chars: list[int] = []
        real = segmenter.sentences
        monkeypatch.setattr(
            segmenter, "sentences", lambda text: split_chars.append(len(text)) or real(text)
        )
        for r in range(20):
            text = _chain_revision(base, r)
            split_chars.clear()
            model, _ = pipeline.update(model, text, in_place=True)
            split_now = sum(split_chars)
            bare.extraction.line_splits.clear()
            bare, _ = pipeline.update(bare, text, in_place=True)
            assert _fields(model.extraction.segments) == _fields(segment_policy(text))
            assert model_artifacts(model) == model_artifacts(bare)
            if r == 10:  # the first update after a load splits everything
                assert split_now > 0.9 * len(text)
            else:
                assert split_now < 0.5 * len(text)
            if r == 9:
                for i, m in enumerate((model, bare)):
                    pipeline.save_model(m, tmp_path / f"store{i}")
                model = pipeline.load_model(tmp_path / "store0")
                bare = pipeline.load_model(tmp_path / "store1")
                assert model.extraction.line_splits == {}
            else:
                assert model.extraction.line_splits


def _artifact_digests(model) -> dict[str, str]:
    return {
        name: hashlib.sha256(payload).hexdigest()
        for name, payload in model_artifacts(model).items()
    }


class TestPracticePositions:
    """A practice keeps no position; its segment does.  Along a 20-revision
    MediTrack chain, in place and rebuilt, every practice names its
    segment and the positions joined from it match a fresh build's."""

    def test_chain_positions_match_fresh_build(self, tmp_path):
        base = meditrack_policy().text
        pipeline = PolicyPipeline()
        patched = pipeline.process(base)
        rebuilt = pipeline.process(base)
        for r in range(20):
            text = _chain_revision(base, r)
            previous = rebuilt
            before = previous.extraction.practice_dicts()
            patched, stats = pipeline.update(patched, text, in_place=True)
            rebuilt, _ = pipeline.update(rebuilt, text)
            assert stats.segments_reused > 0.9 * stats.segments_total
            fresh = pipeline.process(text).extraction
            expected = fresh.practice_dicts()
            for model in (patched, rebuilt):
                extraction = model.extraction
                assert [p.segment_id for p in extraction.practices] == [
                    p.segment_id for p in fresh.practices
                ]
                assert extraction.practice_dicts() == expected
            # A rebuild shares no practice list with the model it replaced,
            # which stays live with its own positions.
            old_lists = {id(v) for v in previous.extraction.practices_by_segment.values()}
            new_lists = {id(v) for v in rebuilt.extraction.practices_by_segment.values()}
            assert not old_lists & new_lists
            assert previous.extraction.practice_dicts() == before
            if r in (6, 13, 19):
                for i, model in enumerate((patched, rebuilt)):
                    digests = _artifact_digests(model)
                    pipeline.save_model(model, tmp_path / f"r{r}-{i}")
                    loaded = pipeline.load_model(tmp_path / f"r{r}-{i}")
                    assert _artifact_digests(loaded) == digests
                patched = pipeline.load_model(tmp_path / f"r{r}-0")
                rebuilt = pipeline.load_model(tmp_path / f"r{r}-1")


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


class TestPatchedSnapshotParity:
    """A model patched in place and its snapshot round trip answer alike.

    Patching keeps a neighbour's adjacency slot when the segment that made
    it is removed, while a snapshot load replays edges segment by segment,
    so the two graphs can order ``edges_touching`` differently.  Subgraph
    order fixes encoding order; the verdicts must not depend on it.
    """

    REMOVED = (
        "When you create an account, you may provide your name, email "
        "address, and phone number. ",
        "If you contact customer support, we collect your message content. ",
    )

    @staticmethod
    def _order(model, node):
        return [
            (e.source, e.target, e.action, e.segment_id)
            for e in model.graph.edges_touching(node)
        ]

    def test_audit_catalog_verdicts_survive_round_trip(
        self, small_policy_text, tmp_path
    ):
        from perfbench.inputs import audit_catalog

        pipeline = PolicyPipeline()
        patched = pipeline.process(small_policy_text)
        edited = small_policy_text
        for sentence in self.REMOVED:
            assert sentence in edited
            edited = edited.replace(sentence, "")
        pipeline.update(patched, edited, in_place=True)
        pipeline.save_model(patched, tmp_path / "store")
        loaded = pipeline.load_model(tmp_path / "store")

        # The case under test: the same edges, in a different order.
        reordered = [
            node
            for node in patched.graph.nodes()
            if self._order(patched, node) != self._order(loaded, node)
        ]
        assert reordered
        for node in reordered:
            assert sorted(self._order(patched, node)) == sorted(
                self._order(loaded, node)
            )

        questions = [
            question
            for entry in audit_catalog(patched, 8)
            for question in (entry.text, entry.paraphrase)
        ]
        assert len(questions) == 64
        for question in questions:
            a = pipeline.query(patched, question).verification
            b = pipeline.query(loaded, question).verification
            assert (a.verdict, a.policy_consistent, a.conditionally_valid) == (
                b.verdict,
                b.policy_consistent,
                b.conditionally_valid,
            ), question
