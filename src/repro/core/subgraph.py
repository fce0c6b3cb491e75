"""Phase 3 step 2: relevant-subgraph extraction.

For a translated query we collect the edges that could bear on it: every
practice edge whose object lies in the hierarchy closure of the query's
data term (the term itself, its ancestors, and its descendants in G_DD),
plus edges incident to the query's entities.  New queries reuse the
existing hierarchy with local traversal — no reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.graphs import PolicyGraph, PracticeEdge


@dataclass(slots=True)
class Subgraph:
    """The slice of the policy graph a query will be verified against."""

    edges: list[PracticeEdge] = field(default_factory=list)
    data_terms: set[str] = field(default_factory=set)
    entity_terms: set[str] = field(default_factory=set)
    hierarchy_edges: list[tuple[str, str]] = field(default_factory=list)  # (parent, child)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def describe(self, limit: int = 20) -> str:
        lines = [e.describe() for e in self.edges[:limit]]
        if len(self.edges) > limit:
            lines.append(f"... and {len(self.edges) - limit} more edges")
        return "\n".join(lines)


def subgraph_cache_key(
    data_terms: list[str],
    entity_terms: list[str],
    *,
    use_hierarchy: bool,
    revision: int = 0,
) -> tuple:
    """Canonical memoization key for :func:`extract_subgraph`.

    Extraction is order-insensitive in its term lists (closures are set
    unions, traversal is sorted), so the key lowers and sorts them; the
    model ``revision`` is embedded so cached slices die with the graph
    version that produced them.
    """
    return (
        tuple(sorted({t.lower() for t in data_terms})),
        tuple(sorted({t.lower() for t in entity_terms})),
        bool(use_hierarchy),
        revision,
    )


def split_components(subgraph: Subgraph) -> list[Subgraph]:
    """Partition a subgraph into independent data-branch components.

    Two practice edges land in the same component when their data terms are
    connected — directly (same term) or through the subgraph's hierarchy
    edges (same taxonomy branch).  Entity nodes are deliberately *not*
    connectors: the policy's own organization appears as the sender of
    nearly every edge, so entity connectivity would collapse everything
    into one component, while data-branch connectivity mirrors how the
    paper decomposes compound statements into per-data-type edges.

    Each component carries its own slice of the hierarchy edges, so
    per-component encoding re-grounds only that branch's inheritance
    axioms — the mechanism by which the degradation ladder shrinks a
    policy-sized solver problem back to query size.  Every edge of the
    input appears in exactly one component; components are ordered largest
    first (ties broken by smallest data term) so the split is
    deterministic.
    """
    parent: dict[str, str] = {}

    def find(term: str) -> str:
        parent.setdefault(term, term)
        while parent[term] != term:
            parent[term] = parent[parent[term]]
            term = parent[term]
        return term

    def union(a: str, b: str) -> None:
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            parent[root_a] = root_b

    for parent_term, child_term in subgraph.hierarchy_edges:
        union(parent_term, child_term)
    for edge in subgraph.edges:
        find(edge.target)

    grouped: dict[str, Subgraph] = {}
    for edge in subgraph.edges:
        root = find(edge.target)
        component = grouped.get(root)
        if component is None:
            component = grouped[root] = Subgraph()
        component.edges.append(edge)
        component.data_terms.add(edge.target)
        component.entity_terms.add(edge.source)
        if edge.receiver:
            component.entity_terms.add(edge.receiver)
    for parent_term, child_term in subgraph.hierarchy_edges:
        component = grouped.get(find(parent_term))
        if component is not None:
            component.hierarchy_edges.append((parent_term, child_term))
            component.data_terms.update((parent_term, child_term))
    return sorted(
        grouped.values(),
        key=lambda c: (-c.num_edges, min(c.data_terms, default="")),
    )


def component_for_terms(
    components: list[Subgraph], terms: Iterable[str]
) -> Subgraph | None:
    """The first component containing any of ``terms`` (lowered), if any."""
    wanted = {t.lower() for t in terms if t}
    for component in components:
        if component.data_terms & wanted:
            return component
    return None


def extract_subgraph(
    graph: PolicyGraph,
    data_terms: list[str],
    entity_terms: list[str],
    *,
    use_hierarchy: bool = True,
    max_edges: int | None = None,
) -> Subgraph:
    """Collect the edges relevant to the query terms.

    Args:
        use_hierarchy: when False the closure step is skipped (the A1
            ablation: hierarchy-blind matching).
        max_edges: optional cap, used by the solver-limit experiments to
            sweep encoded-subgraph size.
    """
    sub = Subgraph()
    closure: set[str] = set()
    for term in data_terms:
        term = term.lower()
        if use_hierarchy:
            closure |= graph.data_closure(term)
        else:
            closure.add(term)
    sub.data_terms = set(closure)
    sub.entity_terms = {e.lower() for e in entity_terms}

    def admit(edge: PracticeEdge, seen: set[int]) -> None:
        marker = id(edge)
        if marker in seen:
            return
        seen.add(marker)
        sub.edges.append(edge)
        sub.data_terms.add(edge.target)
        sub.entity_terms.add(edge.source)
        if edge.receiver:
            sub.entity_terms.add(edge.receiver)

    seen: set[int] = set()
    # Data relevance: every edge acting on a term in the closure.
    for term in sorted(closure):
        for edge in graph.edges_touching(term):
            if edge.target in closure:
                admit(edge, seen)
            if max_edges is not None and len(sub.edges) >= max_edges:
                break
        if max_edges is not None and len(sub.edges) >= max_edges:
            break
    # Entity-only queries ("does law enforcement receive anything?") fall
    # back to the edges incident to the named entities.
    if not closure:
        for ent in sorted({e.lower() for e in entity_terms}):
            for edge in graph.edges_touching(ent):
                admit(edge, seen)
                if max_edges is not None and len(sub.edges) >= max_edges:
                    break

    if use_hierarchy and graph.data_taxonomy is not None:
        taxonomy = graph.data_taxonomy
        for child in sorted(sub.data_terms):
            parent = taxonomy.parent(child)
            if parent and parent != taxonomy.root and parent in sub.data_terms:
                sub.hierarchy_edges.append((parent, child))
    return sub
