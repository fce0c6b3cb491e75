"""A6 — what does trust-but-verify cost?

Certification (PR 4) re-validates every decided verdict with an
independent checker: SAT models are re-evaluated against the grounded CNF
and the original FOL assertions, UNSAT verdicts replay their DRUP proof
by unit propagation, and theory lemmas are certified against fresh axiom
instantiations.  It runs *inside* the query path by default, so its cost
is the price of every single-query soundness guarantee.

This bench runs the A3 query corpus against the TikTak model with
certification off (the pre-PR-4 behaviour) and on, caches disabled so
every query pays the full verification, and reports:

* wall-clock per regime (best of ``ROUNDS`` to shed scheduler noise),
* the overhead percentage — **target < 25%** on query-sized problems,
* each round's wall and ``time.thread_time()`` seconds and overhead
  ratio, written to the JSON so a run's spread is visible next to the
  best-of figure it is judged by,
* the per-verdict certificate cost drawn from ``CertificateReport.seconds``
  and the check mix (model-check vs proof-replay vs lemma certification).
"""

import time

from conftest import print_table, write_bench_json

from repro import PipelineConfig, PolicyPipeline

QUERIES = [
    "The user provides email to TikTak.",
    "The user provides phone number to TikTak.",
    "TikTak collects email address.",
    "TikTak shares biometric identifiers with data brokers.",
    "TikTak collects the location information.",
]
REPEATS = 4  # 5 distinct x 4 = 20 queries per timed round
ROUNDS = 5  # interleaved best-of to shed scheduler noise
OVERHEAD_TARGET = 0.25


def _timed_round(model, *, certify: bool):
    """Outcomes, wall seconds and this thread's CPU seconds for one round."""
    pipeline = PolicyPipeline(
        config=PipelineConfig(enable_query_caches=False, certify=certify)
    )
    start, cpu_start = time.perf_counter(), time.thread_time()
    outcomes = [pipeline.query(model, q) for q in QUERIES * REPEATS]
    return outcomes, time.perf_counter() - start, time.thread_time() - cpu_start


def test_a6_certification_overhead(tiktak_model):
    # Warm both paths once, then interleave the regimes round by round so a
    # background stall hits both equally instead of biasing one side.
    _timed_round(tiktak_model, certify=True)
    plain_seconds = certified_seconds = float("inf")
    plain: list = []
    certified: list = []
    per_round: list[dict] = []
    for _ in range(ROUNDS):
        outcomes, seconds, plain_cpu = _timed_round(tiktak_model, certify=False)
        if seconds < plain_seconds:
            plain, plain_seconds = outcomes, seconds
        plain_wall = seconds
        outcomes, seconds, certified_cpu = _timed_round(tiktak_model, certify=True)
        if seconds < certified_seconds:
            certified, certified_seconds = outcomes, seconds
        per_round.append(
            {
                "plain_wall": round(plain_wall, 6),
                "certified_wall": round(seconds, 6),
                "wall_overhead": round((seconds - plain_wall) / plain_wall, 4),
                "plain_cpu": round(plain_cpu, 6),
                "certified_cpu": round(certified_cpu, 6),
                "cpu_overhead": round((certified_cpu - plain_cpu) / plain_cpu, 4),
            }
        )

    # Certification is a checker, not a solver: verdicts must be identical
    # and every certificate on this clean corpus must pass.
    assert [o.verdict for o in certified] == [o.verdict for o in plain]
    reports = [
        o.verification.certificate
        for o in certified
        if o.verification.certificate is not None
    ]
    assert len(reports) == len(certified)
    assert all(r.certified for r in reports)

    overhead = (certified_seconds - plain_seconds) / plain_seconds
    cert_seconds = sum(r.seconds for r in reports)
    by_verdict: dict[str, list] = {}
    for report in reports:
        by_verdict.setdefault(report.verdict, []).append(report)

    rows: list[list[object]] = [
        ["certify off", f"{plain_seconds:.3f}", "-", "-", "-"],
        [
            "certify on",
            f"{certified_seconds:.3f}",
            f"{overhead * 100:.1f}%",
            f"{cert_seconds:.3f}",
            f"{len(reports)} certificates",
        ],
    ]
    for verdict, group in sorted(by_verdict.items()):
        checks = sorted({c for r in group for c in r.checks})
        rows.append(
            [
                f"  {verdict} verdicts",
                "-",
                "-",
                f"{sum(r.seconds for r in group):.3f}",
                f"{len(group)}x: {', '.join(checks)}",
            ]
        )

    print_table(
        f"A6: certification overhead ({len(QUERIES) * REPEATS} queries, "
        f"best of {ROUNDS} rounds, target <{OVERHEAD_TARGET:.0%})",
        ["regime", "seconds", "overhead", "cert seconds", "detail"],
        rows,
    )

    # Every run records what it measured, met or not, so the JSON never
    # shows a figure the code no longer reaches.
    exercised = {c for r in reports for c in r.checks}
    write_bench_json(
        "a6_certification_overhead",
        {
            "queries": len(QUERIES) * REPEATS,
            "rounds": ROUNDS,
            "plain_seconds": round(plain_seconds, 6),
            "certified_seconds": round(certified_seconds, 6),
            "overhead": round(overhead, 4),
            "overhead_target": OVERHEAD_TARGET,
            "target_met": overhead < OVERHEAD_TARGET,
            "certificate_seconds": round(cert_seconds, 6),
            "certificates": len(reports),
            "checks_exercised": sorted(exercised),
            "per_round": per_round,
        },
    )

    # The acceptance target: trust-but-verify costs <25% on query-sized
    # problems.  (~16-20% when written; EXPERIMENTS P8 has later runs.)
    assert overhead < OVERHEAD_TARGET, (
        f"certification overhead {overhead:.1%} exceeds the "
        f"{OVERHEAD_TARGET:.0%} target"
    )
    # Both SAT model-checking and UNSAT proof replay must actually have
    # been exercised by the corpus, or the overhead number is vacuous.
    assert "cnf-model" in exercised or "fol-model" in exercised
    assert "proof-replay" in exercised
