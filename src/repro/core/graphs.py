"""Phase 2: the entity–data practice graph.

Nodes are entities (companies, users, partners) and data types; each
extracted practice contributes a directed edge ``[sender] -action->
[object]`` carrying its condition (a boolean predicate), permission flag,
vague-term annotations, and segment provenance.  Sharing practices with a
named receiver additionally contribute a derived ``[receiver] -receive->
[data]`` edge, which is how multi-actor flows become individually
queryable.

Segment provenance makes incremental maintenance possible:
:meth:`PolicyGraph.remove_segment` drops exactly the edges a changed
segment produced.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable

import networkx as nx

from repro.core.hierarchy import Taxonomy
from repro.core.parameters import AnnotatedPractice
from repro.nlp.chunker import is_data_phrase
from repro.nlp.lexicon import ENTITY_TERMS

NODE_ENTITY = "entity"
NODE_DATA = "data"
NODE_OTHER = "other"


@dataclass(frozen=True, slots=True)
class PracticeEdge:
    """One materialized graph edge with full provenance."""

    source: str
    action: str
    target: str
    receiver: str | None
    condition: str | None
    permission: bool
    segment_id: str
    vague_terms: tuple[tuple[str, str], ...] = ()
    derived: bool = False  # True for receiver-side "receive" edges

    @property
    def is_conditional(self) -> bool:
        return self.condition is not None

    def describe(self) -> str:
        arrow = f"[{self.source}] -{self.action}-> [{self.target}]"
        if not self.permission:
            arrow = "NOT " + arrow
        if self.condition:
            arrow += f"  when: {self.condition}"
        return arrow


@dataclass(slots=True)
class GraphStatistics:
    """Table 1 metrics for one policy graph."""

    total_nodes: int
    total_edges: int
    entities: int
    data_types: int
    other_nodes: int
    conditional_edges: int
    negated_edges: int
    vague_edges: int

    def as_dict(self) -> dict[str, int]:
        return {
            "total_nodes": self.total_nodes,
            "total_edges": self.total_edges,
            "entities": self.entities,
            "data_types": self.data_types,
            "other_nodes": self.other_nodes,
            "conditional_edges": self.conditional_edges,
            "negated_edges": self.negated_edges,
            "vague_edges": self.vague_edges,
        }


def classify_node(name: str, company: str) -> str:
    """Node kind: entity, data, or other."""
    lowered = name.lower()
    if lowered == "user" or lowered == company.lower():
        return NODE_ENTITY
    return _phrase_kind(lowered)


@functools.lru_cache(maxsize=8192)
def _phrase_kind(lowered: str) -> str:
    """The company-independent part of :func:`classify_node`, memoized.

    It reads only frozen lexicons, so every graph (and every snapshot
    replay) shares one answer per phrase.
    """
    if lowered in ENTITY_TERMS:
        return NODE_ENTITY
    if is_data_phrase(lowered):
        return NODE_DATA
    return NODE_OTHER


class PolicyGraph:
    """Entity–data practice graph plus the two taxonomies (G_ED, G_DD)."""

    def __init__(
        self,
        company: str,
        data_taxonomy: Taxonomy | None = None,
        entity_taxonomy: Taxonomy | None = None,
    ) -> None:
        self.company = company
        self.graph = nx.MultiDiGraph()
        self.data_taxonomy = data_taxonomy
        self.entity_taxonomy = entity_taxonomy
        self._edges_by_segment: dict[str, list[tuple[str, str, int]]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _ensure_node(self, name: str) -> None:
        if name not in self.graph:
            self.graph.add_node(name, kind=classify_node(name, self.company))

    def _add_edge(self, edge: PracticeEdge) -> None:
        self._ensure_node(edge.source)
        self._ensure_node(edge.target)
        key = self.graph.add_edge(edge.source, edge.target, edge=edge)
        self._edges_by_segment.setdefault(edge.segment_id, []).append(
            (edge.source, edge.target, key)
        )

    def add_practice(self, practice: AnnotatedPractice) -> None:
        """Materialize one extracted practice as one or two edges."""
        primary = PracticeEdge(
            source=practice.sender.lower(),
            action=practice.action.lower(),
            target=practice.data_type.lower(),
            receiver=practice.receiver.lower() if practice.receiver else None,
            condition=practice.condition,
            permission=practice.permission,
            segment_id=practice.segment_id,
            vague_terms=practice.vague_terms,
        )
        self._add_edge(primary)
        if practice.receiver and practice.permission:
            derived = PracticeEdge(
                source=practice.receiver.lower(),
                action="receive",
                target=practice.data_type.lower(),
                receiver=None,
                condition=practice.condition,
                permission=True,
                segment_id=practice.segment_id,
                vague_terms=practice.vague_terms,
                derived=True,
            )
            self._add_edge(derived)

    def add_practices(self, practices: list[AnnotatedPractice]) -> None:
        for practice in practices:
            self.add_practice(practice)

    def restore_edges(self, edges: Iterable[PracticeEdge]) -> None:
        """Re-materialize previously serialized edges verbatim, in order.

        The snapshot-load path replays edges (primary *and* derived) in
        their original insertion order instead of re-deriving them from
        practices, so a round-tripped graph is structurally identical to
        the one that was saved — node order, node kinds, edge keys and
        segment provenance, which keeps :meth:`remove_segment` working
        after a warm start.
        """
        for edge in edges:
            self._add_edge(edge)

    def remove_segment(self, segment_id: str) -> int:
        """Drop every edge contributed by ``segment_id``; prune orphan nodes.

        Returns the number of edges removed.
        """
        entries = self._edges_by_segment.pop(segment_id, [])
        removed = 0
        for source, target, key in entries:
            if self.graph.has_edge(source, target, key):
                self.graph.remove_edge(source, target, key)
                removed += 1
        # Nodes only enter with an edge, so only an endpoint of a removed
        # edge can have been left without edges.
        for source, target, _key in entries:
            for node in (source, target):
                if node in self.graph and self.graph.degree(node) == 0:
                    self.graph.remove_node(node)
        return removed

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def edges(self) -> list[PracticeEdge]:
        """All practice edges, grouped by source node in node order."""
        return [data["edge"] for _u, _v, data in self.graph.edges(data=True)]

    def edges_in_insertion_order(self) -> list[PracticeEdge]:
        """All practice edges, segment by segment in the order they were added.

        Replaying this list through :meth:`restore_edges` gives back the
        node order of a graph built practice by practice; replaying
        :meth:`edges` would not, because networkx groups edges by source.
        Correct only while every graph edge appears in ``_edges_by_segment``
        exactly once, i.e. edges enter through :meth:`_add_edge` and leave
        through :meth:`remove_segment`.
        """
        adjacency = self.graph.succ
        return [
            adjacency[source][target][key]["edge"]
            for entries in self._edges_by_segment.values()
            for source, target, key in entries
        ]

    def nodes_of_kind(self, kind: str) -> list[str]:
        return [n for n, d in self.graph.nodes(data=True) if d.get("kind") == kind]

    def edges_touching(self, node: str) -> list[PracticeEdge]:
        """Edges incident to ``node`` in either direction."""
        if node not in self.graph:
            return []
        out = [d["edge"] for _u, _v, d in self.graph.out_edges(node, data=True)]
        inc = [d["edge"] for _u, _v, d in self.graph.in_edges(node, data=True)]
        return out + inc

    def data_closure(self, term: str) -> set[str]:
        """``term`` plus its hierarchy ancestors and descendants in G_DD."""
        closure = {term}
        if self.data_taxonomy and term in self.data_taxonomy:
            closure.update(self.data_taxonomy.ancestors(term))
            closure.update(self.data_taxonomy.descendants(term))
            closure.discard(self.data_taxonomy.root)
        return closure

    def to_dot(self, *, max_edges: int | None = None) -> str:
        """Render the practice graph in Graphviz DOT format.

        Node shape encodes kind (entity=box, data=ellipse, other=plaintext);
        denied edges are red and dashed; conditional edges are dotted with
        the condition as the label.
        """
        shapes = {NODE_ENTITY: "box", NODE_DATA: "ellipse", NODE_OTHER: "plaintext"}
        lines = ["digraph policy {", "  rankdir=LR;"]
        for node, attrs in self.graph.nodes(data=True):
            shape = shapes.get(attrs.get("kind", NODE_OTHER), "plaintext")
            lines.append(f'  "{node}" [shape={shape}];')
        for i, edge in enumerate(self.edges()):
            if max_edges is not None and i >= max_edges:
                lines.append(f"  // ... {self.graph.number_of_edges() - max_edges} more edges")
                break
            style = []
            label = edge.action
            if not edge.permission:
                style.append("color=red")
                style.append("style=dashed")
                label = "NOT " + label
            elif edge.is_conditional:
                style.append("style=dotted")
                label += f"\\n[{(edge.condition or '')[:40]}]"
            attr_text = f'label="{label}"'
            if style:
                attr_text += ", " + ", ".join(style)
            lines.append(f'  "{edge.source}" -> "{edge.target}" [{attr_text}];')
        lines.append("}")
        return "\n".join(lines)

    def statistics(self) -> GraphStatistics:
        """Compute the Table 1 metrics for this graph."""
        kinds = nx.get_node_attributes(self.graph, "kind")
        entities = sum(1 for k in kinds.values() if k == NODE_ENTITY)
        data_types = sum(1 for k in kinds.values() if k == NODE_DATA)
        others = sum(1 for k in kinds.values() if k == NODE_OTHER)
        edges = self.edges()
        return GraphStatistics(
            total_nodes=self.graph.number_of_nodes(),
            total_edges=self.graph.number_of_edges(),
            entities=entities,
            data_types=data_types,
            other_nodes=others,
            conditional_edges=sum(1 for e in edges if e.is_conditional),
            negated_edges=sum(1 for e in edges if not e.permission),
            vague_edges=sum(1 for e in edges if e.vague_terms),
        )
