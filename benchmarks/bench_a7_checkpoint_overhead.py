"""A7 — checkpoint journaling overhead on the batch executor.

The job runner (:mod:`repro.jobs`), which every batch runs on, can stream
each completed outcome into an append-only fsync'd journal so a killed
audit resumes instead of restarting.  Durability that slows the common
(no-crash) case down too much would never be left on, so this bench
prices it: the A3 repeated-term suite through ``JobRunner`` without a
journal (a plain ``query_batch``) versus ``JobRunner`` with one, cold
caches both sides, best-of-N to squeeze out scheduler noise.

Asserts the journaled run is verdict-identical to the plain one and
costs **< 10% wall-clock overhead** — the journal appends happen on the
worker threads between queries, so the solver work dominates.
"""

import json
import time

from conftest import print_table, write_bench_json

from repro import JobConfig, JobRunner

DISTINCT_QUERIES = [
    "The user provides email to TikTak.",
    "The user provides phone number to TikTak.",
    "TikTak collects email address.",
    "TikTak shares biometric identifiers with data brokers.",
    "TikTak collects the location information.",
]
REPEATS = 8  # the A3 audit suite: 5 distinct x 8 = 40 queries
BATCH_WORKERS = 8
ROUNDS = 3
MAX_OVERHEAD = 0.10


def _trace(outcome) -> str:
    return json.dumps(outcome.as_dict(), sort_keys=True)


def _best_of(rounds, run):
    """Best wall-clock of ``rounds`` cold-cache runs (noise floor)."""
    best_seconds, best_result = float("inf"), None
    for _ in range(rounds):
        start = time.perf_counter()
        result = run()
        seconds = time.perf_counter() - start
        if seconds < best_seconds:
            best_seconds, best_result = seconds, result
    return best_seconds, best_result


def test_a7_checkpoint_overhead(pipeline, tiktak_model, tmp_path, benchmark):
    suite = DISTINCT_QUERIES * REPEATS

    def plain():
        tiktak_model.caches.clear()
        return pipeline.query_batch(
            tiktak_model, suite, max_workers=BATCH_WORKERS
        )

    run_counter = [0]

    def checkpointed():
        run_counter[0] += 1
        tiktak_model.caches.clear()
        runner = JobRunner(
            pipeline,
            tiktak_model,
            JobConfig(
                max_workers=BATCH_WORKERS,
                checkpoint_dir=str(tmp_path / f"ckpt-{run_counter[0]}"),
                handle_signals=False,
            ),
        )
        return runner.run(suite)

    plain_seconds, batch = _best_of(ROUNDS, plain)
    job_seconds, job = _best_of(ROUNDS, checkpointed)

    # The journal only records: every verdict (and the full trace)
    # matches the plain batch, and every outcome reached the journal.
    assert job.pending == []
    assert [o.verdict for o in job.outcomes] == batch.verdicts
    assert [_trace(o) for o in job.outcomes] == [
        _trace(o) for o in batch.outcomes
    ]
    assert job.metrics.checkpoint_records == len(suite)

    overhead = (job_seconds - plain_seconds) / plain_seconds
    print_table(
        f"A7: checkpoint overhead ({len(suite)} queries, "
        f"{BATCH_WORKERS} workers, best of {ROUNDS})",
        ["mode", "seconds", "overhead", "journal records"],
        [
            ["JobRunner (no journal)", f"{plain_seconds:.3f}", "-", "-"],
            [
                "JobRunner (fsync'd journal)",
                f"{job_seconds:.3f}",
                f"{overhead:+.1%}",
                f"{job.metrics.checkpoint_records}",
            ],
        ],
    )

    assert overhead < MAX_OVERHEAD, (
        f"checkpoint journaling cost {overhead:.1%} wall-clock "
        f"({plain_seconds:.3f}s plain vs {job_seconds:.3f}s supervised); "
        f"the <{MAX_OVERHEAD:.0%} budget says durability must ride along "
        f"with solver work, not dominate it"
    )

    write_bench_json(
        "a7_checkpoint_overhead",
        {
            "queries": len(suite),
            "workers": BATCH_WORKERS,
            "rounds": ROUNDS,
            "plain_seconds": round(plain_seconds, 6),
            "supervised_seconds": round(job_seconds, 6),
            "overhead": round(overhead, 4),
            "overhead_budget": MAX_OVERHEAD,
            "journal_records": job.metrics.checkpoint_records,
        },
    )

    # Steady-state number for regression tracking: the checkpointed run.
    benchmark.pedantic(checkpointed, rounds=ROUNDS, iterations=1)
