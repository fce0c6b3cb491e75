"""Unit tests for the policy graph (Phase 2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graphs import (
    NODE_DATA,
    NODE_ENTITY,
    PolicyGraph,
    PracticeEdge,
    classify_node,
)
from repro.core.hierarchy import Taxonomy
from repro.core.parameters import annotate
from repro.llm.tasks import ExtractedParameters


def _practice(
    sender="acme",
    receiver=None,
    data_type="email address",
    action="collect",
    condition=None,
    permission=True,
    segment_id="seg1",
):
    params = ExtractedParameters(
        sender=sender,
        receiver=receiver,
        subject="user",
        data_type=data_type,
        action=action,
        condition=condition,
        permission=permission,
    )
    return annotate(params, segment_id=segment_id, segment_index=0)


class TestClassifyNode:
    def test_company_is_entity(self):
        assert classify_node("acme", "Acme") == NODE_ENTITY

    def test_user_is_entity(self):
        assert classify_node("user", "Acme") == NODE_ENTITY

    def test_lexicon_entity(self):
        assert classify_node("advertisers", "Acme") == NODE_ENTITY

    def test_data_phrase(self):
        assert classify_node("email address", "Acme") == NODE_DATA

    def test_other(self):
        assert classify_node("platform", "Acme") == NODE_ENTITY
        assert classify_node("something vague", "Acme") == "other"


class TestPolicyGraph:
    def test_practice_becomes_edge(self):
        graph = PolicyGraph("Acme")
        graph.add_practice(_practice())
        edges = graph.edges()
        assert len(edges) == 1
        assert edges[0].source == "acme"
        assert edges[0].action == "collect"
        assert edges[0].target == "email address"

    def test_receiver_creates_derived_edge(self):
        graph = PolicyGraph("Acme")
        graph.add_practice(_practice(action="share", receiver="advertisers"))
        edges = graph.edges()
        assert len(edges) == 2
        derived = [e for e in edges if e.derived]
        assert derived[0].source == "advertisers"
        assert derived[0].action == "receive"

    def test_denied_practice_no_derived_edge(self):
        graph = PolicyGraph("Acme")
        graph.add_practice(
            _practice(action="sell", receiver="advertisers", permission=False)
        )
        assert len(graph.edges()) == 1

    def test_condition_preserved_on_edge(self):
        graph = PolicyGraph("Acme")
        graph.add_practice(_practice(condition="with your consent"))
        assert graph.edges()[0].condition == "with your consent"
        assert graph.edges()[0].is_conditional

    def test_vague_terms_annotated(self):
        graph = PolicyGraph("Acme")
        graph.add_practice(_practice(condition="for legitimate business purposes"))
        edge = graph.edges()[0]
        assert ("legitimate business purposes", "legitimate_business_purpose") in edge.vague_terms

    def test_statistics(self):
        graph = PolicyGraph("Acme")
        graph.add_practice(_practice())
        graph.add_practice(
            _practice(action="share", receiver="advertisers", condition="with your consent")
        )
        graph.add_practice(_practice(action="sell", permission=False))
        stats = graph.statistics()
        assert stats.total_edges == 4  # 1 + 2 (share+derived) + 1
        assert stats.entities >= 2
        assert stats.data_types >= 1
        assert stats.negated_edges == 1
        assert stats.conditional_edges == 2  # share + derived receive
        assert stats.vague_edges == 2

    def test_remove_segment_drops_edges_and_orphans(self):
        graph = PolicyGraph("Acme")
        graph.add_practice(_practice(segment_id="keep", data_type="email"))
        graph.add_practice(_practice(segment_id="drop", data_type="gps location"))
        removed = graph.remove_segment("drop")
        assert removed == 1
        assert "gps location" not in graph.graph
        assert "email" in graph.graph

    @settings(max_examples=60, deadline=None)
    @given(
        practices=st.lists(
            st.tuples(
                st.sampled_from(["acme", "user", "advertisers", "email"]),
                st.sampled_from([None, "advertisers", "partners"]),
                st.sampled_from(["email", "gps location", "acme", "cookies"]),
                st.sampled_from(["s0", "s1", "s2", "s3"]),
            ),
            min_size=1,
            max_size=12,
        ),
        order=st.lists(st.sampled_from(["s0", "s1", "s2", "s3", "loop"]), max_size=8),
    )
    def test_endpoint_pruning_matches_full_orphan_scan(self, practices, order):
        def build():
            graph = PolicyGraph("Acme")
            for sender, receiver, data_type, segment_id in practices:
                graph.add_practice(
                    _practice(
                        sender=sender,
                        receiver=receiver,
                        data_type=data_type,
                        segment_id=segment_id,
                    )
                )
            # A self-loop: the node's only edge both leaves and enters it.
            graph.restore_edge(
                PracticeEdge(
                    source="loop node",
                    action="collect",
                    target="loop node",
                    receiver=None,
                    condition=None,
                    permission=True,
                    segment_id="loop",
                )
            )
            return graph

        def remove_with_full_scan(graph, segment_id):
            for source, target, key in graph._edges_by_segment.pop(segment_id, []):
                if graph.graph.has_edge(source, target, key):
                    graph.graph.remove_edge(source, target, key)
            for node in [n for n in graph.graph.nodes if graph.graph.degree(n) == 0]:
                graph.graph.remove_node(node)

        graph, reference = build(), build()
        for segment_id in order:
            graph.remove_segment(segment_id)
            remove_with_full_scan(reference, segment_id)
            assert list(graph.graph.nodes) == list(reference.graph.nodes)
            assert graph.edges() == reference.edges()

    def test_remove_unknown_segment_noop(self):
        graph = PolicyGraph("Acme")
        graph.add_practice(_practice())
        assert graph.remove_segment("nope") == 0
        assert len(graph.edges()) == 1

    def test_edges_touching(self):
        graph = PolicyGraph("Acme")
        graph.add_practice(_practice(data_type="email"))
        graph.add_practice(_practice(data_type="location"))
        touching = graph.edges_touching("email")
        assert len(touching) == 1
        assert graph.edges_touching("missing node") == []

    def test_data_closure_uses_taxonomy(self):
        taxonomy = Taxonomy(root="data")
        taxonomy.add("contact information", "data")
        taxonomy.add("email", "contact information")
        graph = PolicyGraph("Acme", data_taxonomy=taxonomy)
        closure = graph.data_closure("email")
        assert closure == {"email", "contact information"}

    def test_data_closure_without_taxonomy(self):
        graph = PolicyGraph("Acme")
        assert graph.data_closure("email") == {"email"}

    def test_describe_includes_negation(self):
        edge = PracticeEdge(
            source="acme",
            action="sell",
            target="email",
            receiver=None,
            condition=None,
            permission=False,
            segment_id="s",
        )
        assert edge.describe().startswith("NOT ")


class TestDotExport:
    def _graph(self):
        graph = PolicyGraph("Acme")
        graph.add_practices(
            [
                _practice(),
                _practice(action="share", receiver="advertisers",
                          condition="with your consent", segment_id="s2"),
                _practice(action="sell", permission=False, segment_id="s3"),
            ]
        )
        return graph

    def test_dot_structure(self):
        dot = self._graph().to_dot()
        assert dot.startswith("digraph policy {")
        assert dot.endswith("}")
        assert '"acme" [shape=box];' in dot
        assert '"email address" [shape=ellipse];' in dot

    def test_denied_edges_marked(self):
        dot = self._graph().to_dot()
        assert 'label="NOT sell", color=red, style=dashed' in dot

    def test_conditional_edges_dotted(self):
        dot = self._graph().to_dot()
        assert "style=dotted" in dot
        assert "with your consent" in dot

    def test_max_edges_truncation(self):
        dot = self._graph().to_dot(max_edges=1)
        assert "more edges" in dot

    def test_artifact_written(self, pipeline, small_model, tmp_path):
        pipeline.save_artifacts(small_model, tmp_path)
        dot = (tmp_path / "graph.dot").read_text("utf-8")
        assert dot.startswith("digraph policy {")
