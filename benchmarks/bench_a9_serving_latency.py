"""A9 — resident serving vs cold CLI invocations.

PR 7's reason to exist: every ``repro-policy query`` invocation pays a
fresh ``PolicyPipeline``, a shard load, and a cold Phase 3 run before it
can answer one question.  The daemon keeps all of that warm behind a
socket.  This bench prices the same single-company question both ways:

* **cold** — what one CLI invocation does per question: construct a
  pipeline, load the model from its shard, run the query, throw it away;
* **warm** — one :class:`PolicyServer` with the fleet pre-warmed, a
  keep-alive :class:`ServingClient`, measured per-request at the client
  (so the number includes HTTP framing, admission, and the epoch pin —
  the whole serving overhead, not just the query).

Asserts the warm served p50 beats the cold per-invocation p50 by
**>= 5x** (the acceptance bar; measured ~100x on the reference
container), that the server-side reservoir agrees the tail is bounded,
and writes the numbers to ``BENCH_a9_serving_latency.json``.
"""

import statistics
import time

from conftest import forget_process_memos, print_table, write_bench_json

from repro import PolicyPipeline, PolicyServer, ServerConfig, ServingClient
from repro.registry import MintSpec, PolicyRegistry

QUESTION = "The company shares the email address with advertisers."
FLEET = MintSpec(count=4, seed=47, target_words=(340,))
COLD_ROUNDS = 5  # cold invocations are seconds each; a handful suffices
WARM_REQUESTS = 200
MIN_SPEEDUP = 5.0


def _p50(samples: list[float]) -> float:
    return statistics.median(samples)


def test_a9_serving_latency(pipeline, tmp_path):
    registry = PolicyRegistry(tmp_path / "reg", pipeline=pipeline, max_warm=8)
    report = registry.mint(FLEET)
    companies = registry.companies()
    assert len(report.minted) == FLEET.count

    # Cold: the per-invocation cost of the CLI path, end to end.
    cold_samples = []
    for _ in range(COLD_ROUNDS):
        forget_process_memos()
        start = time.perf_counter()
        solo = PolicyPipeline()
        model = solo.load_model(
            registry.root / registry.entry(companies[0]).store_dir
        )
        outcome = solo.query(model, QUESTION)
        cold_samples.append(time.perf_counter() - start)
    cold_verdict = outcome.verdict.value

    # Warm: the resident daemon, measured from the client side.
    server = PolicyServer(
        ServerConfig(
            root=registry.root,
            port=0,
            max_pending=8,
            warm_on_start=-1,
            handle_signals=False,
        ),
        pipeline=PolicyPipeline(),
    )
    server.start()
    try:
        host, port = server.address
        client = ServingClient(host, port, timeout=30.0)
        try:
            warm_samples = []
            verdicts = set()
            for i in range(WARM_REQUESTS):
                company = companies[i % len(companies)]
                start = time.perf_counter()
                status, body = client.query(company, QUESTION)
                warm_samples.append(time.perf_counter() - start)
                assert status == 200
                verdicts.add((company, body["verdict"]))
            stats = client.stats()
        finally:
            client.close()
    finally:
        server.stop()

    # Same verdict either way: serving is a transport, not a different
    # engine.
    assert (companies[0], cold_verdict) in verdicts

    cold_p50 = _p50(cold_samples)
    warm_p50 = _p50(warm_samples)
    warm_sorted = sorted(warm_samples)
    warm_p95 = warm_sorted[int(0.95 * (len(warm_sorted) - 1))]
    warm_p99 = warm_sorted[int(0.99 * (len(warm_sorted) - 1))]
    speedup = cold_p50 / warm_p50

    # The server's own reservoir must agree with the client's view to
    # within the transport overhead: its p50 can only be faster.
    server_latency = stats["latency"]
    assert server_latency["count"] == WARM_REQUESTS
    assert server_latency["p50_seconds"] <= warm_p50 * 1.5

    print_table(
        f"A9: serving latency ({WARM_REQUESTS} warm requests over "
        f"{len(companies)} companies vs {COLD_ROUNDS} cold invocations)",
        ["mode", "p50", "p95", "p99", "speedup"],
        [
            [
                "cold: CLI per-invocation",
                f"{cold_p50 * 1e3:.1f} ms",
                "-",
                "-",
                "1.0x",
            ],
            [
                "warm: served keep-alive",
                f"{warm_p50 * 1e3:.2f} ms",
                f"{warm_p95 * 1e3:.2f} ms",
                f"{warm_p99 * 1e3:.2f} ms",
                f"{speedup:.0f}x",
            ],
            [
                "server-side reservoir",
                f"{server_latency['p50_seconds'] * 1e3:.2f} ms",
                f"{server_latency['p95_seconds'] * 1e3:.2f} ms",
                f"{server_latency['p99_seconds'] * 1e3:.2f} ms",
                "-",
            ],
        ],
    )

    assert speedup >= MIN_SPEEDUP, (
        f"warm served p50 ({warm_p50 * 1e3:.2f} ms) only {speedup:.1f}x "
        f"faster than a cold CLI invocation ({cold_p50 * 1e3:.1f} ms); "
        f"the >= {MIN_SPEEDUP:.0f}x bar is the daemon's reason to exist"
    )

    write_bench_json(
        "a9_serving_latency",
        {
            "companies": len(companies),
            "cold_rounds": COLD_ROUNDS,
            "warm_requests": WARM_REQUESTS,
            "cold_p50_seconds": round(cold_p50, 6),
            "warm_p50_seconds": round(warm_p50, 6),
            "warm_p95_seconds": round(warm_p95, 6),
            "warm_p99_seconds": round(warm_p99, 6),
            "server_p50_seconds": server_latency["p50_seconds"],
            "server_p95_seconds": server_latency["p95_seconds"],
            "server_p99_seconds": server_latency["p99_seconds"],
            "speedup": round(speedup, 2),
            "min_speedup": MIN_SPEEDUP,
        },
    )
