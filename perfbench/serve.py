"""The ``serve`` workload: the daemon, admission and HTTP path.

Set-up mints a fleet larger than the daemon's warm LRU (``max_warm``
defaults to 32) and starts ``repro serve`` as its own process through
:mod:`perfbench.serve_launcher`, until ``/readyz`` reports ready.  This
process is the one load generator, over one keep-alive connection (see
:data:`CONNECTIONS`):

* closed-loop slices give ``throughput_per_s``, the capacity, over the
  slices together;
* open-loop slices each send a block of requests at seeded paced arrivals
  at one fixed rate, well below capacity; the latencies, each timed from
  when its request was due, are pooled over the slices.

The two kinds of slice alternate, spread over the whole run (see
:func:`_drive`).  The host-speed probe runs in this process between
slices and, in an open-loop slice, in the gaps where no request is in
flight and the next is not due for a while, so it never delays a request.
The daemon is held to the same CPU, so the probe sees the speed the
daemon runs at.

Every request of a run is fixed in advance by the seed: closed-loop
slices send a fixed number of requests, so every seed and every commit
sends the same requests.  Most go to a hot set of companies by a skewed
popularity; a stated share scan the other companies in turn, more of them
than the warm slots the hot set leaves free, so each scan request asks
for a company the LRU has evicted and is a cold load.  Questions come from
a fixed catalog.  Before the measured slices, every catalog pair is asked
once, untimed, so each measured request repeats a pair.  After the run,
every (company, question) pair of the catalog is answered in-process on
the same snapshots, and every served verdict must match.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter

from perfbench import inputs
from perfbench.core import (
    P95_SAMPLES,
    Context,
    Op,
    Phase,
    digest,
    latency_ms,
    layer_metrics,
    overhead,
    quarantined,
    throughput,
    verdict_shares,
)
from perfbench.host import GCPauses, peak_rss_mb
from perfbench.tracing import load_trace
from perfbench.workloads import Result, _timed_setups

SERVE_COMPANIES = 34
SERVE_MINT_SEED = 23
SERVE_QUESTIONS = 4
#: Daemon defaults this workload is sized against (``repro serve``).
MAX_WARM = 32
#: Companies the skewed popularity covers; the other 18 are scanned, and
#: 18 is more than the 16 warm slots the hot set leaves free.
HOT_COMPANIES = 16
#: Share of requests that scan, each to a company outside the warm set
#: (a cold load).  Above 5%, so the p95 falls among the cold loads, not
#: on the edge between them and the warm requests.
SCAN_SHARE = 0.12
#: The request mix repeats in blocks of this many, each in seeded order.
BLOCK = 50
#: Untimed closed-loop requests that settle the LRU into the mix.
SETTLE_REQUESTS = 200
#: Open-loop arrival rate, requests/s: an eighth of the closed-loop
#: capacity measured on a 2-core host (about 250/s), so a host period
#: 20-30% slower stays far from saturation.
OPEN_RATE = 30.0
#: Connections, for both loops: one.  The run and the daemon share one
#: CPU, where a second connection overlaps the client's work with the
#: daemon's but adds threads that take the CPU in turns: back-to-back
#: closed-loop slices of the same requests scattered about twice as much
#: over two connections (7-8% against 4%).
#: In the open loop, a request due while another is in flight waits in
#: order (that wait is part of its latency).
CONNECTIONS = 1
#: Requests in one open-loop slice; a run pools its slices' requests.
OPEN_SLICE_REQUESTS = 50
#: Open-loop requests a run needs: fifteen beyond its p95.
OPEN_MIN_REQUESTS = 3 * P95_SAMPLES // 2
#: Requests in one closed-loop slice (about 0.6 s on the reference host).
CLOSED_SLICE_REQUESTS = 150
#: One closed-loop and one open-loop slice on the reference host;
#: ``--seconds`` sets how many.
SLICE_SECONDS = 0.6 + OPEN_SLICE_REQUESTS / OPEN_RATE
#: Probes between two slices.
SLICE_PROBES = 5
#: An open-loop gap takes a probe only if the next request is due later
#: than this (a probe takes about 2 ms).
PROBE_GAP = 0.006
READY_TIMEOUT = 120.0
DRAIN_TIMEOUT = 60.0


class _Connection:
    """A minimal keep-alive JSON client (independent of the program's)."""

    def __init__(self, host: str, port: int) -> None:
        self._conn = http.client.HTTPConnection(host, port, timeout=60)

    def request(self, method: str, path: str, body: dict | None = None):
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if data is not None else {}
        self._conn.request(method, path, body=data, headers=headers)
        response = self._conn.getresponse()
        payload = response.read()
        try:
            decoded = json.loads(payload) if payload else {}
        except ValueError:
            decoded = {}
        return response.status, decoded

    def close(self) -> None:
        self._conn.close()


class Daemon:
    """``repro serve`` in its own process, started through the launcher."""

    def __init__(self, ctx: Context, root, *, trace_out=None) -> None:
        command = [sys.executable, "-u", str(ctx.root / "perfbench" / "serve_launcher.py")]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        command += ["serve", "--root", str(root), "--port", "0"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ctx.root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self._log = open(ctx.workdir / f"daemon-{os.getpid()}-{id(self)}.log", "wb")
        self.proc = subprocess.Popen(
            command,
            cwd=ctx.root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        self.host, self.port = self._await_address()
        self._await_ready()

    def _await_address(self) -> tuple[str, int]:
        deadline = time.monotonic() + READY_TIMEOUT
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline().decode("utf-8", "replace")
            if not line:
                break
            if line.startswith("serving ") and "http://" in line:
                address = line.rsplit("http://", 1)[1].strip()
                host, _, port = address.rpartition(":")
                return host, int(port)
        self.stop()
        raise RuntimeError("daemon exited before reporting its address")

    def _await_ready(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT
        conn = _Connection(self.host, self.port)
        try:
            while time.monotonic() < deadline:
                status, body = conn.request("GET", "/readyz")
                if status == 200 and body.get("ready"):
                    return
                time.sleep(0.01)
        finally:
            conn.close()
        self.stop()
        raise RuntimeError("daemon never reported ready")

    def connect(self) -> _Connection:
        return _Connection(self.host, self.port)

    def stats(self) -> dict:
        conn = self.connect()
        try:
            return conn.request("GET", "/stats")[1]
        finally:
            conn.close()

    def stop(self) -> None:
        """Drain gracefully; kill if the drain does not finish in time."""
        if self.proc.poll() is None:
            try:
                conn = _Connection(self.host, self.port)
                conn.request("POST", "/drain", {})
                conn.close()
            except (OSError, http.client.HTTPException, AttributeError):
                self.proc.terminate()
            try:
                self.proc.wait(timeout=DRAIN_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def _send(conn: _Connection, pair) -> tuple[int, str | None]:
    company, question = pair
    try:
        status, body = conn.request("POST", "/query", {"company": company, "question": question})
    except (OSError, http.client.HTTPException):
        return 0, None
    return status, body.get("verdict") if status == 200 else None


def _op(latency: float, status: int, verdict, pair, started: float = 0.0) -> Op:
    return Op(
        latency,
        ok=status == 200 and verdict is not None,
        verdicts=(verdict,) if verdict is not None else (),
        key=pair,
        status=status,
        started=started,
    )


def closed_loop(send, pairs, connections: int) -> tuple[Phase, list]:
    """``connections`` clients back to back until ``pairs`` is used up;
    ``send(conn_index, pair) -> (status, verdict)``.

    Returns the phase and each op's service time (send to reply)."""
    lock = threading.Lock()
    ops: list[Op] = []
    position = [0]

    def client(index: int):
        while True:
            with lock:
                i = position[0]
                if i >= len(pairs):
                    return
                position[0] += 1
            started = time.perf_counter()
            status, verdict = send(index, pairs[i])
            op = _op(time.perf_counter() - started, status, verdict, pairs[i], started)
            with lock:
                ops.append(op)

    started = time.perf_counter()
    threads = [threading.Thread(target=client, args=(n,)) for n in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase = Phase(ops, time.perf_counter() - started)
    return phase, [op.seconds for op in ops]


def open_loop(
    send,
    schedule: inputs.ServeSchedule,
    connections: int,
    clock=time.perf_counter,
    sleep=time.sleep,
    idle=None,
    idle_gap: float = PROBE_GAP,
):
    """Send each request at its due time; time it from when it was due.

    ``send(conn_index, pair) -> (status, verdict)``.  With every
    connection busy, a due request waits, and that wait is part of its
    latency.  ``idle()`` is called after a reply when no request is in
    flight and none is due within ``idle_gap`` seconds.  Returns ``(ops,
    late seconds per request, service times)``.
    """
    lock = threading.Lock()
    position = [0]
    ops: list[Op] = []
    late: list[float] = []
    service: list[float] = []
    waiting: dict[int, float] = {}  # taken, not yet sent: index -> due
    in_flight = [0]
    n = len(schedule.pairs)
    origin = clock()

    def quiet(now: float) -> bool:
        """No request in flight and none due soon (caller holds the lock)."""
        if in_flight[0]:
            return False
        dues = list(waiting.values())
        if position[0] < n:
            dues.append(origin + schedule.arrivals[position[0]])
        return min(dues, default=float("inf")) - now > idle_gap

    def client(index: int):
        while True:
            with lock:
                i = position[0]
                if i >= n:
                    return
                position[0] += 1
                due = origin + schedule.arrivals[i]
                waiting[i] = due
            wait = due - clock()
            if wait > 0:
                sleep(wait)
            sent = clock()
            with lock:
                del waiting[i]
                in_flight[0] += 1
            status, verdict = send(index, schedule.pairs[i])
            done = clock()
            with lock:
                in_flight[0] -= 1
                ops.append(_op(done - due, status, verdict, schedule.pairs[i], due))
                late.append(max(0.0, sent - due))
                service.append(done - sent)
                probe = idle is not None and quiet(done)
            if probe:
                idle()

    threads = [threading.Thread(target=client, args=(n,)) for n in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return ops, late, service


def warm_up(daemon: Daemon, pairs) -> list[Op]:
    """Ask every catalog pair once, untimed, in sorted order.

    The measured requests then do not depend on which pairs a seed's
    closed-loop slices happened to reach first, and the warm set ends as
    the daemon's own warm start left it (the last companies, sorted).
    """
    conn = daemon.connect()
    try:
        return [_op(0.0, *_send(conn, pair), pair) for pair in sorted(pairs)]
    finally:
        conn.close()


def _drive(ctx: Context, daemon: Daemon, streams) -> dict:
    """Alternate closed-loop and open-loop slices against ``daemon``.

    The closed-loop throughput of this host shifts by up to a third from
    one few-second stretch to the next, with the probe unchanged (run
    back to back, a run's closed-loop slices agreed within 5% and runs
    disagreed by 40%); slices spread over the whole run average it.
    """
    settle, plan = streams
    conns = [daemon.connect() for _ in range(CONNECTIONS)]

    def send(n, pair):
        return _send(conns[n], pair)

    out = {"closed": [], "closed_at": [], "open": [], "late": [], "service": []}
    try:
        # Untimed: the catalog warm-up leaves the warm LRU in sorted order,
        # so the first requests of the real mix evict its most popular
        # companies; some of the mix settles the LRU first.
        out["settle"] = closed_loop(send, settle, CONNECTIONS)[0].ops
        # A traced run's figures cover the measured requests only: spans
        # that start before this mark (warm-up, settling) are cut.
        out["measured_from"] = time.perf_counter()
        for closed, schedule in plan:
            ctx.speed.sample(SLICE_PROBES)
            started = time.perf_counter()
            phase, service = closed_loop(send, closed, CONNECTIONS)
            out["closed"].append(phase)
            out["closed_at"].append(started)
            out["service"] += service
            ctx.speed.sample(SLICE_PROBES)
            ops, late, service = open_loop(send, schedule, CONNECTIONS, idle=ctx.speed.sample)
            out["open"].append(ops)
            out["late"] += late
            out["service"] += service
        ctx.speed.sample(SLICE_PROBES)
    finally:
        for conn in conns:
            conn.close()
    return out


def _ops(run) -> list[Op]:
    """Every measured request of a run, closed-loop then open-loop."""
    return [op for phase in run["closed"] for op in phase.ops] + [
        op for ops in run["open"] for op in ops
    ]


def normalize(speed, run) -> None:
    """Scale a run's figures to reference speed (wall figures stay in
    ``wall_closed`` and ``op.wall``).

    Each open-loop request is scaled by the speed and steal around it.  A
    closed-loop slice is scaled by the steal over the slice itself and by
    the probe speed over the whole run: the probes next to a slice follow
    a burst that kept the CPU and its caches busy with the daemon.
    """
    run["wall_closed"] = [phase.seconds for phase in run["closed"]]
    speed_factor = speed.run_speed_factor()
    for phase, started in zip(run["closed"], run["closed_at"]):
        span = (started, started + phase.seconds)
        phase.seconds *= speed_factor * (1.0 - speed.stolen_share(started, span))
    speed.normalize(op for ops in run["open"] for op in ops)


def timing_metrics(run, *, wall: bool = False) -> dict[str, float]:
    """Throughput over the pooled closed-loop slices; latencies:
    percentiles of the pooled open-loop requests."""
    seconds = run["wall_closed"] if wall else [p.seconds for p in run["closed"]]
    opened = [op for ops in run["open"] for op in ops]
    if wall:
        opened = [Op(op.wall, ok=op.ok) for op in opened]
    closed = Phase([op for p in run["closed"] for op in p.ops], sum(seconds))
    return {
        "throughput_per_s": throughput(closed),
        "latency_p50_ms": latency_ms(opened, 50),
        "latency_p95_ms": latency_ms(opened, 95),
    }


def serve(ctx: Context) -> Result:
    from repro import PolicyPipeline
    from repro.registry import MintSpec, PolicyRegistry

    spec = MintSpec(count=SERVE_COMPANIES, seed=SERVE_MINT_SEED)

    def build(i):
        root = ctx.workdir / f"serve-{i}"
        PolicyRegistry(root, pipeline=PolicyPipeline()).mint(spec)
        return root, Daemon(ctx, root)

    def discard(built):
        built[1].stop()
        shutil.rmtree(built[0], ignore_errors=True)

    setup_times, (root, daemon) = _timed_setups(ctx, build, discard)
    companies = PolicyRegistry(root).companies()
    hot, scan = companies[:HOT_COMPANIES], companies[HOT_COMPANIES:]
    questions = inputs.fleet_questions(SERVE_QUESTIONS)
    seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
    needed = P95_SAMPLES if ctx.tiny or ctx.trace else OPEN_MIN_REQUESTS
    slices = max(-(-needed // OPEN_SLICE_REQUESTS), round(seconds / SLICE_SECONDS))
    block = inputs.serve_block(BLOCK, hot=hot, questions=questions, scan_share=SCAN_SHARE)

    def workload_inputs(tag: str):
        """The settling requests, then per slice its closed-loop requests
        and its open-loop schedule: one sequence, cut in the order sent."""
        per_slice = CLOSED_SLICE_REQUESTS + OPEN_SLICE_REQUESTS
        sequence = inputs.serve_sequence(
            ctx.rng("serve", tag),
            block,
            SETTLE_REQUESTS + slices * per_slice,
            scan=scan,
            questions=questions,
        )
        settle, rest = sequence[:SETTLE_REQUESTS], sequence[SETTLE_REQUESTS:]
        plan = []
        for j in range(slices):
            part = rest[j * per_slice : (j + 1) * per_slice]
            arrivals = inputs.paced_arrivals(
                ctx.rng("serve-arrivals", tag, j), OPEN_RATE, OPEN_SLICE_REQUESTS
            )
            plan.append(
                (
                    part[:CLOSED_SLICE_REQUESTS],
                    inputs.ServeSchedule(part[CLOSED_SLICE_REQUESTS:], arrivals),
                )
            )
        return settle, plan

    detail: dict = {}
    try:
        catalog = [(c, q) for c in companies for q in questions]
        warmed = warm_up(daemon, catalog)
        if not ctx.trace:
            streams = workload_inputs("measured")
            before = daemon.stats()
            with GCPauses() as gc_pauses:
                run = _drive(ctx, daemon, streams)
            normalize(ctx.speed, run)
            after = daemon.stats()
            daemon_rss = peak_rss_mb(daemon.proc.pid)
            detail["gc_pause_ms"] = gc_pauses.seconds * 1e3
        else:
            untraced = _drive(ctx, daemon, workload_inputs("untraced"))
            normalize(ctx.speed, untraced)
            daemon.stop()
            trace_path = ctx.workdir / "serve-trace.json"
            daemon = Daemon(ctx, root, trace_out=trace_path)
            warmed += warm_up(daemon, catalog)
            streams = workload_inputs("traced")
            before = daemon.stats()
            run = _drive(ctx, daemon, streams)
            normalize(ctx.speed, run)
            after = daemon.stats()
    finally:
        daemon.stop()

    # Every served verdict must match in-process queries on the same
    # snapshots; the reference answers the whole catalog.
    reference_pipeline = PolicyPipeline()
    registry = PolicyRegistry(root, pipeline=reference_pipeline)
    reference = {}
    for company in companies:
        model = reference_pipeline.load_model(root / registry.entry(company).store_dir)
        for question in questions:
            reference[(company, question)] = reference_pipeline.query(model, question).verdict.value
    served = _ops(run)
    untraced_ops = _ops(untraced) if ctx.trace else []
    # Warm-up replies are checked too, though they are not measured.
    warmed += run["settle"] + (untraced["settle"] if ctx.trace else [])
    mismatches = 0
    failures: Counter = Counter()
    for op in warmed + served + untraced_ops:
        if not op.ok:
            failures[f"status_{op.status}"] += 1
        elif op.verdicts[0] != reference[op.key]:
            op.ok = False
            mismatches += 1
            failures["verdict_mismatch"] += 1

    closed_pairs = inputs.ServeSchedule([op.key for p in run["closed"] for op in p.ops])
    open_pairs = inputs.ServeSchedule([pair for _c, sched in streams[1] for pair in sched.pairs])
    queue = after.get("queue", {})
    shed = queue.get("shed", 0) - before.get("queue", {}).get("shed", 0)
    admitted = queue.get("admitted", 0) - before.get("queue", {}).get("admitted", 0)
    reg_after, reg_before = after.get("metrics", {}), before.get("metrics", {})
    hits = reg_after.get("registry_hits", 0) - reg_before.get("registry_hits", 0)
    misses = reg_after.get("registry_misses", 0) - reg_before.get("registry_misses", 0)
    evictions = reg_after.get("registry_evictions", 0) - reg_before.get("registry_evictions", 0)
    detail.update(
        {
            "mix": {
                "companies": len(companies),
                "hot_companies": len(hot),
                "scan_companies": len(scan),
                "warm_slots": MAX_WARM,
                "catalog_pairs": len(reference),
                # Each pair is asked once before measuring, so every
                # measured request repeats a pair; the shares below are
                # within the measured requests themselves.
                "warm_up_requests": len(warmed),
                "open_rate_per_s": OPEN_RATE,
                "connections": CONNECTIONS,
                "slices": slices,
                "closed_scan_share": closed_pairs.share_to(scan),
                "closed_repeat_share": closed_pairs.repeat_share(),
                "open_scan_share": open_pairs.share_to(scan),
                "open_repeat_share": open_pairs.repeat_share(),
                "registry_cold_load_share": misses / max(hits + misses, 1),
            },
            "checks": {"served_mismatches": mismatches},
            "quarantined": quarantined(root),
            "failures": dict(failures),
            "digest": digest({f"{c}|{q}": v for (c, q), v in reference.items()}),
            "generator_late_ms": {
                "median": statistics.median(run["late"]) * 1e3 if run["late"] else 0.0,
                "max": max(run["late"], default=0.0) * 1e3,
            },
            # Closed-loop slices' reference-speed throughputs, and the
            # timing metrics in wall time.
            "per_slice_throughput_per_s": [throughput(p) for p in run["closed"]],
            "wall_metrics": {
                **timing_metrics(run, wall=True),
                "setup_s": statistics.median(setup_times["wall"]),
            },
            "host.speed": ctx.speed.summary(),
            "closed_requests": len(closed_pairs.pairs),
            "samples": len(open_pairs.pairs),
        }
    )
    success, decided, counts = verdict_shares(served)
    detail.update(
        {
            "verdicts": counts,
            "failed_share": 1.0 - success,
            "unknown_share": 1.0 - decided,
            "setup_runs_s": setup_times["reference"],
            "setup_runs_wall_s": setup_times["wall"],
        }
    )
    if not ctx.trace:
        metrics = {
            **timing_metrics(run),
            "success_share": success,
            "decided_share": decided,
            "peak_rss_mb": daemon_rss,
            "setup_s": statistics.median(setup_times["reference"]),
        }
        return Result(metrics, served, mismatches == 0, detail)

    trace = load_trace(trace_path).since(run["measured_from"])
    n = len(served)
    layers = layer_metrics(trace, n, under="server.handle_query")
    handled = sum(s[3] - s[2] for s in trace.spans_of("server.handle_query"))
    layers["server.http_overhead_ms"] = (sum(run["service"]) - handled) * 1e3 / max(n, 1)
    layers["server.shed_share"] = shed / max(shed + admitted, 1)
    layers["registry.warm_hit_ratio"] = hits / max(hits + misses, 1)
    layers["registry.evictions"] = evictions / max(n, 1)
    layers.update(ctx.setup_layers)
    detail["tracing_overhead"] = overhead(timing_metrics(untraced), timing_metrics(run))
    integrity = trace.integrity()
    detail["trace_integrity"] = integrity
    detail["trace_coverage"] = {
        "handle_over_service": handled / sum(run["service"]) if run["service"] else 0.0
    }
    correct = mismatches == 0 and not any(integrity.values())
    return Result(layers, served + untraced_ops, correct, detail)
