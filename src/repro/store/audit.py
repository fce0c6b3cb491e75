"""Structural-invariant and incremental-drift auditing for policy models.

Two audits, one report type:

* :func:`audit_structure` checks the invariants every healthy
  :class:`~repro.core.pipeline.PolicyModel` must satisfy — taxonomy
  acyclicity and rooting, graph edges referencing known segments and
  matching the extracted practices, and the embedding index staying in
  sync with the graph (the ``_index_graph_embeddings`` drift class).
* :func:`audit_parity` compares an incrementally patched model against a
  from-scratch rebuild of the same extraction — the paper's "update only
  those branches" promise, checked component by component (graph edge
  multisets, taxonomy edge sets, vocabulary, segments, practices, and the
  embedding-index projection).

Both return an :class:`AuditReport`; :func:`heal_model` is the remedy for
a failed parity audit — it overwrites the patched model's derived state
with the rebuild, in place, so existing references stay valid.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.graphs import NODE_DATA, NODE_ENTITY, PolicyGraph, PracticeEdge
from repro.core.hierarchy import Taxonomy
from repro.core.pipeline import PolicyModel
from repro.embeddings.search import edge_text
from repro.errors import HierarchyError


@dataclass(frozen=True, slots=True)
class AuditFinding:
    """One violated invariant: which check, on what, and the evidence."""

    check: str
    subject: str
    detail: str

    def summary(self) -> str:
        return f"[{self.check}] {self.subject}: {self.detail}"


@dataclass(slots=True)
class AuditReport:
    """Outcome of one audit run."""

    kind: str  # "structure" | "parity"
    checks_run: list[str] = field(default_factory=list)
    findings: list[AuditFinding] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.findings

    def add(self, check: str, subject: str, detail: str) -> None:
        self.findings.append(AuditFinding(check=check, subject=subject, detail=detail))

    def summary(self) -> str:
        status = "PASS" if self.passed else f"FAIL ({len(self.findings)} findings)"
        lines = [f"{self.kind} audit: {status}; checks: {', '.join(self.checks_run)}"]
        lines.extend(f"  {f.summary()}" for f in self.findings)
        return "\n".join(lines)

    def as_dict(self) -> dict[str, object]:
        return {
            "kind": self.kind,
            "passed": self.passed,
            "checks_run": list(self.checks_run),
            "findings": [
                {"check": f.check, "subject": f.subject, "detail": f.detail}
                for f in self.findings
            ],
        }


# ---------------------------------------------------------------------------
# Comparable projections
# ---------------------------------------------------------------------------


def edge_key(edge: PracticeEdge) -> tuple:
    """Order-insensitive identity of one practice edge."""
    return (
        edge.source,
        edge.action,
        edge.target,
        edge.receiver,
        edge.condition,
        edge.permission,
        edge.segment_id,
        tuple(edge.vague_terms),
        edge.derived,
    )


def _expected_edges(model: PolicyModel) -> Counter:
    """The edge multiset the extraction's practices should materialize."""
    expected: Counter = Counter()
    probe = PolicyGraph(model.company)
    probe.add_practices(model.extraction.practices)
    for edge in probe.edges():
        expected[edge_key(edge)] += 1
    return expected


def _required_store_keys(model: PolicyModel) -> set[str]:
    """Every key the embedding index must hold for Phase 3 to see the graph."""
    keys = set(model.graph.nodes())
    keys.update(
        edge_text(edge.source, edge.action, edge.target)
        for edge in model.graph.edges()
    )
    return keys


# ---------------------------------------------------------------------------
# Structural invariants
# ---------------------------------------------------------------------------


def _audit_taxonomy(report: AuditReport, taxonomy: Taxonomy, name: str) -> None:
    try:
        taxonomy.validate()
    except HierarchyError as exc:
        report.add("taxonomy-consistency", name, str(exc))
    if not taxonomy.root:
        report.add("taxonomy-rooting", name, "empty root concept")
    for term in taxonomy.terms:
        if term == taxonomy.root:
            continue
        chain = taxonomy.ancestors(term)
        if not chain or chain[-1] != taxonomy.root:
            report.add(
                "taxonomy-rooting", name, f"term {term!r} does not reach the root"
            )


def audit_structure(model: PolicyModel) -> AuditReport:
    """Check every structural invariant of one model."""
    report = AuditReport(kind="structure")

    report.checks_run.append("taxonomy-consistency")
    report.checks_run.append("taxonomy-rooting")
    _audit_taxonomy(report, model.data_taxonomy, "data_taxonomy")
    _audit_taxonomy(report, model.entity_taxonomy, "entity_taxonomy")

    report.checks_run.append("taxonomy-coverage")
    for node in model.graph.nodes():
        kind = model.graph.kind(node)
        if kind == NODE_DATA and node not in model.data_taxonomy:
            report.add("taxonomy-coverage", node, "data node missing from G_DD")
        elif kind == NODE_ENTITY and node not in model.entity_taxonomy:
            report.add("taxonomy-coverage", node, "entity node missing from G_ED")

    report.checks_run.append("edge-provenance")
    known_segments = {s.segment_id for s in model.extraction.segments}
    for edge in model.graph.edges():
        if edge.segment_id not in known_segments:
            report.add(
                "edge-provenance",
                edge.describe(),
                f"references unknown segment {edge.segment_id!r}",
            )

    report.checks_run.append("edge-practice-parity")
    actual: Counter = Counter(edge_key(e) for e in model.graph.edges())
    expected = _expected_edges(model)
    for key in (expected - actual):
        report.add("edge-practice-parity", str(key[:3]), "practice edge missing from graph")
    for key in (actual - expected):
        report.add("edge-practice-parity", str(key[:3]), "graph edge not backed by any practice")

    report.checks_run.append("vocabulary-sync")
    nodes = set(model.graph.nodes())
    for term in nodes - model.node_vocabulary:
        report.add("vocabulary-sync", term, "graph node missing from query vocabulary")
    for term in model.node_vocabulary - nodes:
        report.add("vocabulary-sync", term, "vocabulary term is not a graph node")

    report.checks_run.append("embedding-index-sync")
    for key in sorted(_required_store_keys(model)):
        if key not in model.store:
            report.add("embedding-index-sync", key, "graph element missing from embedding store")

    return report


# ---------------------------------------------------------------------------
# Incremental-vs-rebuild parity
# ---------------------------------------------------------------------------


def audit_parity(patched: PolicyModel, rebuilt: PolicyModel) -> AuditReport:
    """Compare a patched model with a from-scratch rebuild, field by field.

    The embedding store is compared as a *projection*: the patched store
    legitimately retains vectors for vocabulary that left the graph (the
    vocabulary filter hides them from queries), so only the keys the graph
    requires are checked for presence on both sides.
    """
    report = AuditReport(kind="parity")

    report.checks_run.append("company")
    if patched.company != rebuilt.company:
        report.add("company", patched.company, f"rebuild says {rebuilt.company!r}")

    report.checks_run.append("segments")
    patched_segments = [s.segment_id for s in patched.extraction.segments]
    rebuilt_segments = [s.segment_id for s in rebuilt.extraction.segments]
    if patched_segments != rebuilt_segments:
        report.add(
            "segments",
            "segment sequence",
            f"{len(patched_segments)} vs {len(rebuilt_segments)} ids diverge",
        )

    report.checks_run.append("practices")
    patched_practices = patched.extraction.practice_dicts()
    rebuilt_practices = rebuilt.extraction.practice_dicts()
    if patched_practices != rebuilt_practices:
        report.add(
            "practices",
            "practice list",
            f"{len(patched_practices)} vs {len(rebuilt_practices)} entries diverge",
        )

    report.checks_run.append("graph-edges")
    patched_edges = Counter(edge_key(e) for e in patched.graph.edges())
    rebuilt_edges = Counter(edge_key(e) for e in rebuilt.graph.edges())
    for key in (patched_edges - rebuilt_edges):
        report.add("graph-edges", str(key[:3]), "edge present only in patched model")
    for key in (rebuilt_edges - patched_edges):
        report.add("graph-edges", str(key[:3]), "edge present only in rebuilt model")

    for name in ("data_taxonomy", "entity_taxonomy"):
        report.checks_run.append(name)
        patched_tax: Taxonomy = getattr(patched, name)
        rebuilt_tax: Taxonomy = getattr(rebuilt, name)
        p_edges = set(patched_tax.as_edges())
        r_edges = set(rebuilt_tax.as_edges())
        for parent, child in sorted(p_edges - r_edges):
            report.add(name, child, f"patched places it under {parent!r}; rebuild does not")
        for parent, child in sorted(r_edges - p_edges):
            report.add(name, child, f"rebuild places it under {parent!r}; patch does not")

    report.checks_run.append("vocabulary")
    for term in sorted(patched.node_vocabulary - rebuilt.node_vocabulary):
        report.add("vocabulary", term, "term only in patched vocabulary")
    for term in sorted(rebuilt.node_vocabulary - patched.node_vocabulary):
        report.add("vocabulary", term, "term only in rebuilt vocabulary")

    report.checks_run.append("embedding-index-projection")
    required = _required_store_keys(rebuilt)
    for key in sorted(required):
        if key not in patched.store:
            report.add("embedding-index-projection", key, "missing from patched store")
        if key not in rebuilt.store:
            report.add("embedding-index-projection", key, "missing from rebuilt store")

    return report


def heal_model(patched: PolicyModel, rebuilt: PolicyModel) -> PolicyModel:
    """Overwrite ``patched``'s derived state with ``rebuilt``'s, in place.

    The remedy for a failed parity audit: callers hold references to the
    patched model object, so healing mutates it rather than swapping it
    out.  The revision counter is preserved (healing is not a new policy
    version) and every Phase 3 cache table is cleared, the
    content-addressed verification table too: a heal keeps nothing
    computed while the model was in the state it repairs.
    """
    patched.company = rebuilt.company
    patched.extraction = rebuilt.extraction
    patched.data_taxonomy = rebuilt.data_taxonomy
    patched.entity_taxonomy = rebuilt.entity_taxonomy
    patched.graph = rebuilt.graph
    patched.store = rebuilt.store
    patched.node_vocabulary = rebuilt.node_vocabulary
    patched.caches.clear()
    return patched
