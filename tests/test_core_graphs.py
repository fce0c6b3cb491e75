"""Unit tests for the policy graph (Phase 2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graphs import (
    NODE_DATA,
    NODE_ENTITY,
    NODE_OTHER,
    PolicyGraph,
    PracticeEdge,
    classify_node,
)
from repro.core.hierarchy import Taxonomy
from repro.core.parameters import annotate
from repro.llm.tasks import ExtractedParameters
from repro.nlp.chunker import is_data_phrase


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
    return annotate(params, segment_id=segment_id)


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


def _classify_node_unmemoized(name: str, company: str) -> str:
    """``classify_node`` as it was before its phrase part was memoized."""
    lowered = name.lower()
    if lowered in {"user", company.lower()}:
        return NODE_ENTITY
    from repro.nlp.lexicon import ENTITY_TERMS

    if lowered in ENTITY_TERMS:
        return NODE_ENTITY
    if is_data_phrase(lowered):
        return NODE_DATA
    return NODE_OTHER


class TestMemoizedNodeKinds:
    """Memoized kinds equal the unmemoized classification on real graphs."""

    @pytest.fixture(scope="class")
    def models(self, tmp_path_factory):
        from repro import PolicyPipeline
        from repro.corpus import meditrack_policy, metabook_policy, tiktak_policy
        from repro.registry import MintSpec, PolicyRegistry

        pipeline = PolicyPipeline()
        models = [
            pipeline.process(make().text)
            for make in (tiktak_policy, metabook_policy, meditrack_policy)
        ]
        registry = PolicyRegistry(tmp_path_factory.mktemp("fleet"), pipeline=pipeline)
        registry.mint(MintSpec(count=3, seed=7))
        models += [registry.get_model(c) for c in registry.companies()]
        return models

    def test_kinds_match_unmemoized_classification(self, models):
        checked = 0
        for model in models:
            graph = model.graph
            for name in graph.nodes():
                kind = graph.kind(name)
                expected = _classify_node_unmemoized(name, graph.company)
                assert kind == expected, (graph.company, name)
                assert classify_node(name, graph.company) == expected
                # Another company's name must not leak through the memo.
                assert classify_node(name, "Elsewhere") == _classify_node_unmemoized(
                    name, "Elsewhere"
                )
                checked += 1
        assert checked > 500

    def test_company_name_is_not_memoized(self):
        assert classify_node("acme", "Acme") == NODE_ENTITY
        assert classify_node("acme", "Globex") == _classify_node_unmemoized(
            "acme", "Globex"
        )
        assert classify_node("globex", "Globex") == NODE_ENTITY


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
        assert not graph.has_node("gps location")
        assert graph.has_node("email")

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
            graph.restore_edges(
                [
                    PracticeEdge(
                        source="loop node",
                        action="collect",
                        target="loop node",
                        receiver=None,
                        condition=None,
                        permission=True,
                        segment_id="loop",
                    )
                ]
            )
            return graph

        def remove_with_full_scan(graph, segment_id):
            for edge in graph._edges_by_segment.pop(segment_id, []):
                pair = graph._out[edge.source][edge.target]
                pair.remove(edge)
                if not pair:
                    del graph._out[edge.source][edge.target]
                    del graph._in[edge.target][edge.source]
            for node in [n for n in graph.nodes() if not graph.edges_touching(n)]:
                del graph._kinds[node], graph._out[node], graph._in[node]

        graph, reference = build(), build()
        for segment_id in order:
            graph.remove_segment(segment_id)
            remove_with_full_scan(reference, segment_id)
            assert graph.nodes() == reference.nodes()
            assert graph.edges() == reference.edges()
            for node in graph.nodes():
                assert graph.edges_touching(node) == reference.edges_touching(node)

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

    def test_edges_touching_order_is_pinned(self):
        """Out-edges by neighbour slot, then in-edges; a pair in insertion order.

        Subgraph order fixes encoding order, so this order is part of every
        verdict trace. The expected lists are the order the library-backed
        graph this class replaced gave.
        """

        def edge(source, target, segment_id, action="collect"):
            return PracticeEdge(source, action, target, None, None, True, segment_id)

        def touching(node):
            return [(e.source, e.target, e.segment_id) for e in graph.edges_touching(node)]

        readded = [edge("hub", "gps", "s1"), edge("advertisers", "hub", "s1", "share")]
        graph = PolicyGraph("Acme")
        graph.restore_edges(
            [
                edge("hub", "email", "s0"),
                *readded,
                edge("hub", "email", "s2", "share"),
                edge("hub", "hub", "s3"),
                edge("partners", "hub", "s4", "share"),
            ]
        )
        assert touching("hub") == [
            ("hub", "email", "s0"),
            ("hub", "email", "s2"),
            ("hub", "gps", "s1"),
            ("hub", "hub", "s3"),
            ("advertisers", "hub", "s1"),
            ("hub", "hub", "s3"),
            ("partners", "hub", "s4"),
        ]
        assert graph.remove_segment("s1") == 2
        assert touching("hub") == [
            ("hub", "email", "s0"),
            ("hub", "email", "s2"),
            ("hub", "hub", "s3"),
            ("hub", "hub", "s3"),
            ("partners", "hub", "s4"),
        ]
        assert graph.nodes() == ["hub", "email", "partners"]
        # The neighbours that lost their last edge come back last.
        graph.restore_edges(readded)
        assert touching("hub") == [
            ("hub", "email", "s0"),
            ("hub", "email", "s2"),
            ("hub", "hub", "s3"),
            ("hub", "gps", "s1"),
            ("hub", "hub", "s3"),
            ("partners", "hub", "s4"),
            ("advertisers", "hub", "s1"),
        ]
        assert touching("email") == [("hub", "email", "s0"), ("hub", "email", "s2")]
        assert graph.nodes() == ["hub", "email", "partners", "gps", "advertisers"]

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


class TestRestoreEdges:
    """Snapshot replay rebuilds the graph exactly as it was built."""

    @staticmethod
    def _layout(graph):
        return (
            [(node, graph.kind(node)) for node in graph.nodes()],
            [(node, graph.edges_touching(node)) for node in graph.nodes()],
            graph.edges(),
            list(graph._edges_by_segment.items()),
        )

    def test_round_trip_matches_the_original_graph(
        self, pipeline, small_policy_text, tmp_path
    ):
        from repro.store import SnapshotStore

        model = pipeline.process(small_policy_text)
        store = SnapshotStore(tmp_path)
        store.commit(model)
        original, restored = model.graph, store.load().model.graph
        assert any(edge.derived for edge in original.edges())
        assert restored.nodes() == original.nodes()
        assert self._layout(restored) == self._layout(original)

        for segment_id in list(original._edges_by_segment):
            assert restored.remove_segment(segment_id) == original.remove_segment(
                segment_id
            )
            assert self._layout(restored) == self._layout(original)
        assert restored.nodes() == []

    def test_bulk_replay_matches_edge_by_edge_insertion(self):
        edges = [
            PracticeEdge("acme", "collect", "email", None, None, True, "s0"),
            PracticeEdge("acme", "share", "email", "advertisers", None, True, "s1"),
            PracticeEdge(
                "advertisers", "receive", "email", None, None, True, "s1", derived=True
            ),
            PracticeEdge("acme", "collect", "email", None, "consent", True, "s2"),
            PracticeEdge("loop node", "collect", "loop node", None, None, True, "s2"),
        ]
        one_by_one = PolicyGraph("Acme")
        for edge in edges:
            one_by_one._add_edge(edge)
        bulk = PolicyGraph("Acme")
        bulk.restore_edges(iter(edges))
        assert self._layout(bulk) == self._layout(one_by_one)
        # Replaying onto a graph that already has edges appends to its pairs.
        one_by_one._add_edge(edges[0])
        bulk.restore_edges([edges[0]])
        assert self._layout(bulk) == self._layout(one_by_one)
        assert bulk._edges_by_segment["s0"] == [edges[0], edges[0]]
        assert bulk.edges_touching("acme") == [edges[0], edges[1], edges[3], edges[0]]
