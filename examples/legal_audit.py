#!/usr/bin/env python3
"""Legal-team scenario: audit a policy for contradictions and gaps.

Mirrors the PolicyLint workflow the paper cites: scan for apparent
contradictions, classify which are coherent exception patterns, report
the gaps (collection without retention, unconditional sharing, vague-term
hot spots) that a review should prioritize, and batch-verify the standing
compliance question list through ``PolicyPipeline.query_batch``.
"""

from repro import PolicyPipeline
from repro.analysis import (
    coverage_report,
    find_contradictions,
    find_incomplete_disclaimers,
    render_contradictions,
    render_coverage,
    render_disclaimers,
    rights_report,
)
from repro.corpus import metabook_policy
from repro.corpus.queries import POLICY_QUERIES


def main() -> None:
    policy = metabook_policy()
    print(f"auditing {policy.company} policy ({policy.word_count:,} words)")

    pipeline = PolicyPipeline()
    model = pipeline.process(policy.text)

    print("\n--- apparent contradictions (PolicyLint-style) ---")
    report = find_contradictions(
        model.extraction.practices, data_taxonomy=model.data_taxonomy
    )
    print(render_contradictions(report))

    # Compare against the generator's ground truth: the corpus deliberately
    # injects both coherent carve-outs and genuine contradictions.
    truth = policy.exception_pairs
    print(
        f"\nground truth: {len(truth)} injected pairs, "
        f"{sum(1 for p in truth if not p.coherent)} genuinely contradictory"
    )

    print("\n--- coverage and gap analysis ---")
    print(render_coverage(coverage_report(model.graph)))

    print("\n--- incomplete disclaimers ---")
    print(render_disclaimers(find_incomplete_disclaimers(model.graph)))

    print("\n--- user rights audit ---")
    print(rights_report(model.extraction.practices, model.graph).render())

    # The standing question list every review runs; the batch engine
    # verifies them concurrently and shares repeated solver work.
    print("\n--- batch verification of the compliance question list ---")
    questions = [q.text for q in POLICY_QUERIES if q.policy == "metabook"] + [
        "MetaBook shares the precise location with advertisers.",
        "MetaBook sells the biometric information to data brokers.",
        "Law enforcement receives the account information.",
        "MetaBook processes financial information.",  # repeated ask, cache hit
    ]
    batch = pipeline.query_batch(model, questions, max_workers=4)
    for outcome in batch:
        flags = []
        if outcome.verification.conditionally_valid:
            flags.append("conditionally valid")
        if outcome.verification.has_ambiguity:
            flags.append(f"depends on {len(outcome.verification.depends_on)} vague terms")
        suffix = f"  ({'; '.join(flags)})" if flags else ""
        print(f"  {outcome.verdict!s:7s} {outcome.question}{suffix}")
    print(f"  {batch.summary()}; cache hit rate {batch.metrics.hit_rate:.1%}")

    print("\n--- where human judgment is required ---")
    vague = {}
    for practice in model.extraction.practices:
        for phrase, predicate in practice.vague_terms:
            vague.setdefault(predicate, set()).add(phrase)
    print(f"{len(vague)} distinct uninterpreted predicates; examples:")
    for predicate, phrases in sorted(vague.items())[:8]:
        print(f"  {predicate}: {sorted(phrases)[0]!r}")


if __name__ == "__main__":
    main()
