"""A8 — warm-registry fleet fan-out vs N cold single-policy invocations.

The registry's reason to exist: asking one question of a hundred
companies should not cost a hundred cold pipeline start-ups.  This bench
mints a 100+ policy fleet (deterministic per seed), then prices the same
audit two ways:

* **cold** — what ``N`` separate CLI invocations do: a fresh
  ``PolicyPipeline`` per company, load the shard from disk, run the one
  query, throw everything away;
* **warm** — one ``registry.query_fleet`` fan-out over a pre-warmed LRU
  through the supervised job runner.

Asserts the warm fan-out is **>= 3x** faster, verdict-identical to the
cold runs, and — the durability rider — that a fleet killed mid-run
resumes from its checkpoint to byte-identical report bytes.
"""

import time

from conftest import forget_process_memos, print_table, write_bench_json

from repro import JobConfig, PolicyPipeline
from repro.registry import MintSpec, PolicyRegistry
from repro.store.faults import CrashInjector, SimulatedCrash

QUESTION = "The company shares the email address with advertisers."
FLEET_SIZE = 108  # acceptance floor is 100+ minted policies
SPEC = MintSpec(count=FLEET_SIZE, seed=42, target_words=(340,))
FLEET_WORKERS = 8
ROUNDS = 2
MIN_SPEEDUP = 3.0
KILL_AFTER = 10  # verdict records durable before the simulated kill


def _best_of(rounds, run):
    """Best wall-clock of ``rounds`` runs (noise floor)."""
    best_seconds, best_result = float("inf"), None
    for _ in range(rounds):
        start = time.perf_counter()
        result = run()
        seconds = time.perf_counter() - start
        if seconds < best_seconds:
            best_seconds, best_result = seconds, result
    return best_seconds, best_result


def test_a8_fleet_queries(pipeline, tmp_path, benchmark):
    registry = PolicyRegistry(
        tmp_path / "reg", pipeline=pipeline, max_warm=FLEET_SIZE + 8
    )
    mint_report = registry.mint(SPEC)
    companies = registry.companies()
    assert len(mint_report.minted) == FLEET_SIZE
    assert len(companies) >= 100

    def cold():
        """N independent invocations: fresh pipeline + shard load each."""
        verdicts = {}
        for company in companies:
            forget_process_memos()
            solo = PolicyPipeline()
            model = solo.load_model(
                registry.root / registry.entry(company).store_dir
            )
            verdicts[company] = solo.query(model, QUESTION).verdict
        return verdicts

    loads = registry.warm()  # pre-load outside the timed region
    assert loads == FLEET_SIZE

    def warm():
        for company in companies:
            registry.get_model(company).caches.clear()  # cold queries, warm models
        return registry.query_fleet(
            QUESTION,
            config=JobConfig(max_workers=FLEET_WORKERS, handle_signals=False),
        )

    cold_seconds, cold_verdicts = _best_of(ROUNDS, cold)
    warm_seconds, fleet = _best_of(ROUNDS, warm)

    # Same verdict per company, whichever way the fleet was asked.
    assert not fleet.aborted
    assert {c: o.verdict for c, o in fleet.per_company()} == cold_verdicts

    # Durability rider: kill the fan-out mid-run, resume, compare bytes.
    ckpt = JobConfig(
        max_workers=FLEET_WORKERS,
        checkpoint_dir=tmp_path / "ckpt",
        handle_signals=False,
    )
    killed = False
    try:
        registry.query_fleet(
            QUESTION,
            config=ckpt,
            journal_step=CrashInjector(f"sync:record:{KILL_AFTER}"),
        )
    except SimulatedCrash:
        killed = True
    assert killed
    resumed = registry.resume_fleet(QUESTION, config=ckpt)
    assert resumed.job.restored >= 1
    assert resumed.digest() == fleet.digest()

    speedup = cold_seconds / warm_seconds
    print_table(
        f"A8: fleet fan-out ({len(companies)} companies, "
        f"{FLEET_WORKERS} workers, best of {ROUNDS})",
        ["mode", "seconds", "per company", "speedup"],
        [
            [
                "cold: N fresh pipelines",
                f"{cold_seconds:.3f}",
                f"{cold_seconds / len(companies) * 1e3:.1f} ms",
                "1.0x",
            ],
            [
                "warm: registry.query_fleet",
                f"{warm_seconds:.3f}",
                f"{warm_seconds / len(companies) * 1e3:.1f} ms",
                f"{speedup:.1f}x",
            ],
            [
                "mint (one-time)",
                f"{mint_report.seconds:.3f}",
                f"{mint_report.seconds / len(companies) * 1e3:.1f} ms",
                "-",
            ],
        ],
    )

    assert speedup >= MIN_SPEEDUP, (
        f"warm fleet fan-out only {speedup:.1f}x faster than {len(companies)} "
        f"cold invocations ({cold_seconds:.3f}s vs {warm_seconds:.3f}s); the "
        f">= {MIN_SPEEDUP:.0f}x bar is the registry's reason to exist"
    )

    write_bench_json(
        "a8_fleet_queries",
        {
            "companies": len(companies),
            "workers": FLEET_WORKERS,
            "rounds": ROUNDS,
            "cold_seconds": round(cold_seconds, 6),
            "warm_seconds": round(warm_seconds, 6),
            "speedup": round(speedup, 2),
            "min_speedup": MIN_SPEEDUP,
            "mint_seconds": round(mint_report.seconds, 6),
        },
    )

    # Steady-state number for regression tracking: the warm fan-out.
    benchmark.pedantic(warm, rounds=ROUNDS, iterations=1)
