"""R3 — the headline negative result: SMT solving hits its limits.

"While solver timeouts occur when formulas contain hundreds of clauses
even for single queries, the extraction itself scales linearly" (§4.4);
"the resulting formal representations overwhelm current SMT solvers" (§5).

Sweeps the encoded-subgraph size for a single query from tens of edges to
the full policy graph and reports assertions, ground instances, outcome,
and wall time.  Asserts the paper's shape: small encodings solve, the
full-policy encoding returns UNKNOWN with a reason.

The grounder instantiates each inheritance axiom only at the entities that
can perform its action, so the full policy no longer exhausts the
grounding budget: it is decided to be self-contradictory, an UNKNOWN with
``policy_consistent=False``.  The "eager insts" column keeps the paper's
blow-up measured: the instances a full Herbrand expansion would make,
counted as quantifiers times entity constants without grounding.
"""

import time

from conftest import print_table

from repro import SolverBudget
from repro.core.encode import encode_query
from repro.core.subgraph import Subgraph, extract_subgraph
from repro.core.verify import Verdict, verify_encoded
from repro.fol.formula import Exists, Forall
from repro.fol.visitor import subformulas
from repro.llm.tasks import ExtractedParameters

#: Budget matching the paper's single-query verification setting: generous
#: for query-sized problems, finite for policy-sized ones.
BUDGET = SolverBudget(
    max_conflicts=20_000,
    max_propagations=2_000_000,
    max_ground_instances=60_000,
    timeout_seconds=10.0,
)

QUERY = ExtractedParameters(
    sender="metabook",
    receiver=None,
    subject="user",
    data_type="email",
    action="collect",
    condition=None,
    permission=True,
)


def _full_graph_subgraph(model) -> Subgraph:
    """A subgraph containing every edge and hierarchy link of the policy."""
    sub = Subgraph()
    sub.edges = model.graph.edges()
    sub.data_terms = {e.target for e in sub.edges}
    sub.entity_terms = {e.source for e in sub.edges}
    taxonomy = model.graph.data_taxonomy
    if taxonomy:
        sub.hierarchy_edges = [
            (parent, child)
            for parent, child in taxonomy.as_edges()
            if parent != taxonomy.root
        ]
    return sub


def _eager_instances(encoded) -> int:
    """Instances a full expansion spends: each quantifier over every entity.

    Every quantifier the encoder writes binds an entity variable and none
    is nested, so this is the count the grounder would reach, with an empty
    domain spending one as it does there.
    """
    quantifiers = sum(
        isinstance(node, (Forall, Exists))
        for formula in [*encoded.policy_formulas, encoded.query_formula]
        for node in subformulas(formula)
    )
    return quantifiers * max(len(encoded.entity_constants), 1)


def test_r3_solver_limits(benchmark, metabook_model):
    rows = []
    outcomes = {}
    sweeps: list[tuple[str, Subgraph]] = []
    for max_edges in (10, 50, 150, 400):
        sub = extract_subgraph(
            metabook_model.graph, ["email"], [], max_edges=max_edges
        )
        sweeps.append((f"query subgraph <= {max_edges}", sub))
    sweeps.append(("FULL POLICY GRAPH", _full_graph_subgraph(metabook_model)))

    for label, sub in sweeps:
        encoded = encode_query(sub, QUERY)
        start = time.perf_counter()
        result = verify_encoded(
            encoded, budget=BUDGET, check_conditional=False
        )
        elapsed = time.perf_counter() - start
        outcomes[label] = result
        rows.append(
            [
                label,
                sub.num_edges,
                encoded.num_policy_formulas,
                _eager_instances(encoded),
                result.solver_result.statistics.ground_instances,
                str(result.verdict),
                result.solver_result.reason[:40],
                f"{elapsed:.2f}",
            ]
        )

    print_table(
        "R3: solver outcome vs encoded-subgraph size (paper: timeouts on full policies)",
        [
            "encoding",
            "edges",
            "assertions",
            "eager insts",
            "ground insts",
            "verdict",
            "reason",
            "seconds",
        ],
        rows,
    )

    # Shape: query-sized encodings are decided; the full policy is not.
    for label, result in outcomes.items():
        if label.startswith("query subgraph <= 10") or label.startswith(
            "query subgraph <= 50"
        ):
            assert result.verdict in (Verdict.VALID, Verdict.INVALID), label
    full = outcomes["FULL POLICY GRAPH"]
    assert full.verdict is Verdict.UNKNOWN
    assert full.solver_result.reason, "UNKNOWN must carry a reason"

    # Benchmark the well-behaved query-sized case.
    small = extract_subgraph(metabook_model.graph, ["email"], [], max_edges=50)
    encoded_small = encode_query(small, QUERY)
    benchmark.pedantic(
        verify_encoded,
        args=(encoded_small,),
        kwargs={"budget": BUDGET, "check_conditional": False},
        rounds=3,
        iterations=1,
    )
