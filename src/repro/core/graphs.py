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
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

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
    """Entity–data practice graph plus the two taxonomies (G_ED, G_DD).

    The multigraph lives in plain dicts:

    - ``_kinds`` maps each node to its kind, in insertion order;
    - ``_out[node][target]`` and ``_in[node][source]`` hold the edges
      between one pair in insertion order, one list shared by both views;
    - ``_edges_by_segment`` holds each segment's edges in insertion order,
      segments in the order of their first edge; that is :meth:`edges`'
      order.

    A neighbour's slot goes with its last edge, and a node with its last
    incident edge, so a neighbour or node that comes back sorts last.
    """

    def __init__(
        self,
        company: str,
        data_taxonomy: Taxonomy | None = None,
        entity_taxonomy: Taxonomy | None = None,
    ) -> None:
        self.company = company
        self.data_taxonomy = data_taxonomy
        self.entity_taxonomy = entity_taxonomy
        self._kinds: dict[str, str] = {}
        self._out: dict[str, dict[str, list[PracticeEdge]]] = {}
        self._in: dict[str, dict[str, list[PracticeEdge]]] = {}
        self._edges_by_segment: dict[str, list[PracticeEdge]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _ensure_node(self, name: str) -> None:
        if name not in self._kinds:
            self._kinds[name] = classify_node(name, self.company)
            self._out[name] = {}
            self._in[name] = {}

    def _add_edge(self, edge: PracticeEdge) -> None:
        self._ensure_node(edge.source)
        self._ensure_node(edge.target)
        out = self._out[edge.source]
        if edge.target not in out:
            out[edge.target] = self._in[edge.target][edge.source] = []
        out[edge.target].append(edge)
        self._edges_by_segment.setdefault(edge.segment_id, []).append(edge)

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
        the one that was saved — node order, node kinds, adjacency order
        and segment provenance, which keeps :meth:`remove_segment` working
        after a warm start.
        """
        for edge in edges:
            self._add_edge(edge)

    def remove_segment(self, segment_id: str) -> int:
        """Drop every edge contributed by ``segment_id``; prune orphan nodes.

        Returns the number of edges removed.
        """
        edges = self._edges_by_segment.pop(segment_id, [])
        for edge in edges:
            pair = self._out[edge.source][edge.target]
            pair.remove(edge)
            if not pair:
                del self._out[edge.source][edge.target]
                del self._in[edge.target][edge.source]
        # Nodes only enter with an edge, so only an endpoint of a removed
        # edge can have been left without edges.
        for edge in edges:
            for node in (edge.source, edge.target):
                if node in self._kinds and not self._out[node] and not self._in[node]:
                    del self._kinds[node], self._out[node], self._in[node]
        return len(edges)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def edges(self) -> list[PracticeEdge]:
        """All practice edges, segment by segment in the order they were added.

        Replaying this list through :meth:`restore_edges` rebuilds a graph
        that was built edge by edge, node order and adjacency order included.
        """
        return [edge for edges in self._edges_by_segment.values() for edge in edges]

    def nodes(self) -> list[str]:
        """All nodes, in insertion order."""
        return list(self._kinds)

    def has_node(self, node: str) -> bool:
        return node in self._kinds

    def kind(self, node: str) -> str:
        """``node``'s kind: entity, data, or other."""
        return self._kinds[node]

    def nodes_of_kind(self, kind: str) -> list[str]:
        return [node for node, node_kind in self._kinds.items() if node_kind == kind]

    def edges_touching(self, node: str) -> list[PracticeEdge]:
        """Edges incident to ``node``: out-edges, then in-edges.

        Each direction is grouped by neighbour, in the order the neighbour
        gained its slot, and a pair's edges come in insertion order. A
        self-loop appears in both directions.
        """
        if node not in self._kinds:
            return []
        return [
            edge
            for adjacency in (self._out[node], self._in[node])
            for edges in adjacency.values()
            for edge in edges
        ]

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
        for node, kind in self._kinds.items():
            lines.append(f'  "{node}" [shape={shapes[kind]}];')
        edges = self.edges()
        for i, edge in enumerate(edges):
            if max_edges is not None and i >= max_edges:
                lines.append(f"  // ... {len(edges) - max_edges} more edges")
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
        kinds = Counter(self._kinds.values())
        edges = self.edges()
        return GraphStatistics(
            total_nodes=len(self._kinds),
            total_edges=len(edges),
            entities=kinds[NODE_ENTITY],
            data_types=kinds[NODE_DATA],
            other_nodes=kinds[NODE_OTHER],
            conditional_edges=sum(1 for e in edges if e.is_conditional),
            negated_edges=sum(1 for e in edges if not e.permission),
            vague_edges=sum(1 for e in edges if e.vague_terms),
        )
