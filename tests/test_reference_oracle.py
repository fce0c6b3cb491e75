"""A reference oracle for the encoding: the paper's semantics, evaluated directly.

Certification checks the solver against its input; nothing else checks
that subgraph extraction plus ``encode_query`` say what the policy says.
The encoding is Horn with negative unit facts, so its meaning has a direct
least-model evaluator that shares no code with the encoder or the solver:

- permits without a condition are facts, closed *down* the data hierarchy
  (``a(s, parent)`` gives ``a(s, child)``) for every action of the subgraph;
- denials without a condition are closed *up* it (the contrapositive);
- the statements are consistent when no atom is both permitted and denied
  (a condition can always be resolved false, so guarded edges never clash
  in the plain reading);
- a query holds when each of its atoms is in the permitted set, an
  existential query when any entity's atom is;
- ``conditionally_valid`` asks the same with every vague condition true, so
  that guarded permits and guarded denials count as unguarded.

PoliGraph (PAPERS.md) defines the same subsumption inference over its data
ontology.  The oracle reproduces ``verify_encoded``'s decision procedure on
top: VALID, then the consistency follow-up (a contradiction demotes VALID
to UNKNOWN with ``policy_consistent=False``), and the conditional check for
an INVALID whose subgraph has conditions.  It is compared with the pipeline
on every line of ``tests/data/verdict_traces.jsonl`` and on generated small
subgraphs.  A disagreement is fixed, or recorded in EXPERIMENTS.md as a
known divergence; the comparison is never relaxed.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.pipeline as pipeline_module
from repro import PolicyPipeline
from repro.core.encode import encode_query
from repro.core.graphs import PracticeEdge
from repro.core.subgraph import Subgraph
from repro.core.verify import verify_encoded
from repro.corpus import meditrack_policy, metabook_policy, tiktak_policy
from repro.llm.tasks import ExtractedParameters

TRACES = Path(__file__).parent / "data" / "verdict_traces.jsonl"
POLICIES = {
    "tiktak": tiktak_policy,
    "metabook": metabook_policy,
    "meditrack": meditrack_policy,
}
#: Senders the encoder turns into an existential query.
GENERIC_SENDERS = frozenset({"", "someone", "anyone", "any entity", "any party"})

Atom = tuple[str, str, str]  # (action, entity, data), lower-cased


def least_model(
    facts: set[Atom], children: dict[str, list[str]], actions: set[str]
) -> set[Atom]:
    """``facts`` closed down the hierarchy for the axiom-carrying actions."""
    model = set(facts)
    frontier = list(facts)
    while frontier:
        action, entity, data = frontier.pop()
        if action not in actions:
            continue
        for child in children.get(data, ()):
            derived = (action, entity, child)
            if derived not in model:
                model.add(derived)
                frontier.append(derived)
    return model


def denied_closure(denials: set[Atom], parents: dict[str, list[str]]) -> set[Atom]:
    """``denials`` closed up the hierarchy (the inheritance contrapositive)."""
    closed = set(denials)
    frontier = list(denials)
    while frontier:
        action, entity, data = frontier.pop()
        for parent in parents.get(data, ()):
            derived = (action, entity, parent)
            if derived not in closed:
                closed.add(derived)
                frontier.append(derived)
    return closed


def oracle(subgraph: Subgraph, params: ExtractedParameters) -> dict[str, object]:
    """Verdict, ``policy_consistent`` and ``conditionally_valid`` by least models."""
    edge_actions = {edge.action.lower() for edge in subgraph.edges}
    children: dict[str, list[str]] = defaultdict(list)
    parents: dict[str, list[str]] = defaultdict(list)
    if subgraph.hierarchy_edges:
        for parent, child in subgraph.hierarchy_edges:
            children[parent.lower()].append(child.lower())
            parents[child.lower()].append(parent.lower())
    # Only the subgraph's own actions carry inheritance axioms.
    actions = edge_actions if subgraph.hierarchy_edges else set()

    def reading(conditions_hold: bool) -> tuple[bool, set[Atom]]:
        permits: set[Atom] = set()
        denials: set[Atom] = set()
        for edge in subgraph.edges:
            if edge.condition is not None and not conditions_hold:
                continue
            atom = (edge.action.lower(), edge.source.lower(), edge.target.lower())
            (permits if edge.permission else denials).add(atom)
        permitted = least_model(permits, children, actions)
        # Horn consistency: the least model must avoid every denied atom;
        # closing the denials upward finds the same clashes from above.
        clash = permitted & denied_closure(denials, parents)
        return not clash, permitted

    data = params.data_type.lower()
    sender = (params.sender or "").lower()
    action = params.action.lower()

    def holds(permitted: set[Atom]) -> bool:
        if sender in GENERIC_SENDERS:
            found = any(a == action and d == data for a, _, d in permitted)
        else:
            found = (action, sender, data) in permitted
        if params.receiver:
            found = found and ("receive", params.receiver.lower(), data) in permitted
        return found

    consistent, permitted = reading(conditions_hold=False)
    if not consistent:
        # Everything follows from a contradiction, so the validity check
        # says VALID and the consistency follow-up demotes it.
        return _answer("UNKNOWN", consistent=False)
    if holds(permitted):
        return _answer("VALID", consistent=True)
    conditional = None
    if any(edge.condition is not None for edge in subgraph.edges):
        all_consistent, all_permitted = reading(conditions_hold=True)
        conditional = not all_consistent or holds(all_permitted)
    return _answer("INVALID", conditional=conditional)


def _answer(verdict, *, consistent=None, conditional=None) -> dict[str, object]:
    return {
        "verdict": verdict,
        "policy_consistent": consistent,
        "conditionally_valid": conditional,
    }


def _pipeline_view(result: dict) -> dict[str, object]:
    return _answer(
        result["verdict"],
        consistent=result["policy_consistent"],
        conditional=result["conditionally_valid"],
    )


def _traces() -> dict[str, list[dict]]:
    rows: dict[str, list[dict]] = defaultdict(list)
    for line in TRACES.read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        rows[row["policy"]].append(row)
    return rows


TRACE_ROWS = _traces()


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_oracle_agrees_with_every_verdict_trace(policy, monkeypatch):
    encoded_from: list[tuple[Subgraph, ExtractedParameters]] = []
    real_encode = pipeline_module.encode_query

    def recording_encode(subgraph, params, **kwargs):
        encoded_from.append((subgraph, params))
        return real_encode(subgraph, params, **kwargs)

    monkeypatch.setattr(pipeline_module, "encode_query", recording_encode)
    pipeline = PolicyPipeline()
    model = pipeline.process(POLICIES[policy]().text)
    disagreements = []
    for row in TRACE_ROWS[policy]:
        encoded_from.clear()
        outcome = pipeline.query(model, row["question"])
        subgraph, params = encoded_from[-1]
        expected = oracle(subgraph, params)
        # The pipeline's answer now, and the one pinned in the trace.
        for answer in (outcome.verification.as_dict(), row["result"]):
            got = _pipeline_view(answer)
            if expected != got:
                disagreements.append((row["question"], expected, got))
    assert not disagreements, (
        f"{len(disagreements)} disagreements, e.g. {disagreements[:2]}"
    )


# ----------------------------------------------------------------------
# Generated small subgraphs with hierarchy, conditions and denials
# ----------------------------------------------------------------------

ENTITIES = ("acme", "user", "partners")
DATA = ("personal data", "contact information", "email address", "phone number")
ACTIONS = ("collect", "share")
CONDITIONS = (
    None,
    None,
    "if you opt in",
    "when required by law",
    "if you opt in or when required by law",
    "if you opt in and when required by law",
)


@st.composite
def small_subgraphs(draw) -> tuple[Subgraph, ExtractedParameters]:
    edges = [
        PracticeEdge(
            source=draw(st.sampled_from(ENTITIES)),
            action=draw(st.sampled_from(ACTIONS)),
            target=draw(st.sampled_from(DATA)),
            receiver=None,
            condition=draw(st.sampled_from(CONDITIONS)),
            permission=draw(st.booleans()),
            segment_id="s0",
        )
        for _ in range(draw(st.integers(1, 7)))
    ]
    if draw(st.booleans()):
        # A receiver-side edge, as the graph derives for "shares with".
        edges.append(
            PracticeEdge(
                source=draw(st.sampled_from(ENTITIES)),
                action="receive",
                target=draw(st.sampled_from(DATA)),
                receiver=None,
                condition=None,
                permission=True,
                segment_id="s0",
                derived=True,
            )
        )
    # A forest over the data terms: each term's parent comes before it.
    hierarchy = [
        (DATA[draw(st.integers(0, i - 1))], DATA[i])
        for i in range(1, len(DATA))
        if draw(st.booleans())
    ]
    subgraph = Subgraph(
        edges=edges,
        data_terms={e.target for e in edges},
        entity_terms={e.source for e in edges},
        hierarchy_edges=hierarchy,
    )
    # Half the queries ask about a plain permit's sender and action (and
    # often its data), so that entailed (VALID) queries are common too.
    plain_permits = [e for e in edges if e.permission and e.condition is None]
    edge = draw(st.sampled_from(plain_permits or edges))
    asks_edge = draw(st.booleans())
    params = ExtractedParameters(
        sender=(
            edge.source if asks_edge else draw(st.sampled_from((*ENTITIES, "someone")))
        ),
        receiver=draw(st.sampled_from((None, None, None, *ENTITIES))),
        subject="user",
        data_type=draw(st.sampled_from((edge.target, *DATA) if asks_edge else DATA)),
        action=edge.action if asks_edge else draw(st.sampled_from(ACTIONS)),
        condition=None,
        permission=True,
    )
    return subgraph, params


@given(small_subgraphs())
@settings(max_examples=200, deadline=None)
def test_oracle_agrees_with_the_pipeline_on_small_subgraphs(case):
    subgraph, params = case
    result = verify_encoded(encode_query(subgraph, params))
    assert oracle(subgraph, params) == _pipeline_view(result.as_dict())


def _edge(source, action, target, *, condition=None, permission=True):
    return PracticeEdge(
        source=source,
        action=action,
        target=target,
        receiver=None,
        condition=condition,
        permission=permission,
        segment_id="s0",
    )


def test_oracle_reads_an_inherited_denial_clash_as_a_contradiction():
    # Permitted at the parent, denied at the child: the permit inherits
    # down onto the denial.  Both readings, and the pipeline, agree.
    subgraph = Subgraph(
        edges=[
            _edge("acme", "share", "contact information"),
            _edge("acme", "share", "email address", permission=False),
        ],
        hierarchy_edges=[("contact information", "email address")],
    )
    params = ExtractedParameters(
        sender="acme",
        receiver=None,
        subject="user",
        data_type="phone number",
        action="collect",
        condition=None,
        permission=True,
    )
    expected = _answer("UNKNOWN", consistent=False)
    assert oracle(subgraph, params) == expected
    result = verify_encoded(encode_query(subgraph, params))
    assert _pipeline_view(result.as_dict()) == expected
