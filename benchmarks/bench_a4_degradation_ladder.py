"""A4 — the degradation ladder rescues full-policy UNKNOWNs.

R3 reproduces the paper's negative result: full-policy encodings
overwhelm the solver and come back UNKNOWN.  This bench measures the
resilience layer's answer — the :class:`BudgetLadder` — on exactly those
queries: verify against the FULL policy graph at the *default*
:class:`SolverBudget`, watch it fail, then run the ladder and report the
rescue rate and what each rung cost.

Two regimes are exercised:

* **default budget** — the full encoding grounds completely but the policy
  branches contradict each other, so the verdict is demoted to UNKNOWN;
  escalation cannot help (not budget-limited) and the ladder goes straight
  to per-data-branch decomposition.
* **starved budget** (the R3 setting) — grounding itself overruns, the
  ladder escalates first, re-hits the contradiction, then decomposes.

The reseed rung runs only after decomposition fails on a budget-limited
UNKNOWN that grounding did not trip; ``reseed_steps`` counts how often it
ran here.
"""

import time
from dataclasses import replace

from conftest import print_table, write_bench_json

from repro import SolverBudget
from repro.core.encode import encode_query
from repro.core.subgraph import Subgraph
from repro.core.verify import Verdict, verify_encoded
from repro.llm.tasks import ExtractedParameters
from repro.resilience import BudgetLadder, execute_ladder, is_budget_limited

#: The R3 budget; the starved regime swaps in a smaller grounding cap.
R3_BUDGET = SolverBudget(
    max_conflicts=20_000,
    max_propagations=2_000_000,
    max_ground_instances=60_000,
    timeout_seconds=10.0,
)

#: The starved regime's grounding cap as a share of what grounding the
#: full graph really takes.  Grounding each inheritance axiom over only
#: the entities that can use it keeps TikTak's full graph well under R3's
#: 60,000 instances, so a cap measured from the graph keeps the regime
#: starved at the base budget while the x2 escalation grounds it all.
STARVED_SHARE = 0.6


def _starved(full_instances: int) -> SolverBudget:
    return replace(
        R3_BUDGET, max_ground_instances=max(1, int(full_instances * STARVED_SHARE))
    )


QUERY_TERMS = ("email", "phone number")


def _query(data_type: str) -> ExtractedParameters:
    return ExtractedParameters(
        sender="tiktak",
        receiver=None,
        subject="user",
        data_type=data_type,
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


def _run_ladder(sub, params, budget, ladder, rows, label):
    encoded = encode_query(sub, params)
    start = time.perf_counter()
    initial = verify_encoded(encoded, budget=budget, check_conditional=False)
    base_seconds = time.perf_counter() - start
    rows.append(
        [
            label,
            "(base)",
            str(initial.verdict),
            initial.solver_result.reason[:44],
            f"{base_seconds:.2f}",
            initial.solver_result.statistics.ground_instances,
        ]
    )
    if initial.verdict is not Verdict.UNKNOWN:
        return initial, initial, None
    final, report = execute_ladder(
        sub,
        params,
        initial,
        ladder=ladder,
        base_budget=budget,
        encoded=encoded,
        check_conditional=False,
    )
    for step in report.steps:
        rows.append(
            [
                label,
                f"{step.rung} {step.detail}"[:40],
                step.verdict + ("" if step.sound else " [partial]"),
                step.reason[:44],
                f"{step.seconds:.2f}",
                step.ground_instances,
            ]
        )
    return initial, final, report


def test_a4_degradation_ladder(tiktak_model):
    sub = _full_graph_subgraph(tiktak_model)
    rows: list[list[object]] = []

    # Regime 1: default budget, one ladder run per query term.
    unknown = 0
    rescued = 0
    reports = {}
    full_instances = {}
    for term in QUERY_TERMS:
        initial, final, report = _run_ladder(
            sub, _query(term), SolverBudget(), BudgetLadder(), rows, term
        )
        full_instances[term] = initial.solver_result.statistics.ground_instances
        if report is not None:
            unknown += 1
            reports[term] = report
            if report.rescued:
                rescued += 1

    # Regime 2: the R3 budget, starved below what the same query grounded
    # at the default budget, to exercise the escalation rung before
    # decomposition.
    starved = _starved(full_instances[QUERY_TERMS[0]])
    _initial, starved_final, starved_report = _run_ladder(
        sub,
        _query(QUERY_TERMS[0]),
        starved,
        BudgetLadder(multipliers=(2.0,)),
        rows,
        f"{QUERY_TERMS[0]} @R3 budget",
    )

    print_table(
        "A4: degradation ladder on full-policy UNKNOWNs "
        f"(default-budget rescue rate {rescued}/{unknown})",
        ["query", "rung", "verdict", "reason", "seconds", "ground insts"],
        rows,
    )

    # Shape: every full-policy query is UNKNOWN at the default budget, and
    # the ladder rescues at least one of them (the acceptance criterion).
    assert unknown == len(QUERY_TERMS)
    assert rescued >= 1
    email_report = reports[QUERY_TERMS[0]]
    assert email_report.rescued
    assert email_report.final_rung == "decompose"
    # The contradiction demotion is not budget-limited: no escalation runs.
    assert email_report.escalations == 0
    assert email_report.decompositions == 1

    # The starved regime escalates first, then decomposes to a decision.
    assert starved_report is not None
    assert starved_report.escalations >= 1
    assert starved_report.steps[0].rung == "escalate"
    assert starved_final.verdict is not Verdict.UNKNOWN
    assert starved_report.rescued

    # The base failure really was a budget failure in the starved regime.
    base_row = [r for r in rows if r[0].endswith("@R3 budget") and r[1] == "(base)"]
    assert base_row and "budget" in base_row[0][3] or "timeout" in base_row[0][3]

    reseed_steps = sum(
        1
        for report in [*reports.values(), starved_report]
        for step in report.steps
        if step.rung == "reseed"
    )

    write_bench_json(
        "a4_degradation_ladder",
        {
            "reseed_steps": reseed_steps,
            "query_terms": len(QUERY_TERMS),
            "unknown_at_default_budget": unknown,
            "rescued": rescued,
            "email_escalations": email_report.escalations,
            "email_decompositions": email_report.decompositions,
            "starved_escalations": starved_report.escalations,
            "starved_rescued": starved_report.rescued,
            "full_ground_instances": full_instances[QUERY_TERMS[0]],
            "starved_max_ground_instances": starved.max_ground_instances,
        },
    )
