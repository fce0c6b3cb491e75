"""What every workload shares: run context, operation records, metrics.

End-to-end metrics (``--trace 0``) come from raw per-operation samples
taken with tracing off.  Every timing metric is in reference-speed time:
each operation's wall time scaled by the host-speed probe taken around it
(see :class:`~perfbench.host.HostSpeed`); the wall-time figures are in the
detail record.  The traced run (``--trace 1``) measures half its
time untraced and half traced, reports the per-layer metrics from the
traced half, and the difference between the halves as tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.host import HostSpeed
from perfbench.stats import InsufficientSamples, min_samples_for, percentile

#: The end-to-end metrics, in print order, with their units.
END_TO_END = (
    ("throughput_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("success_share", "fraction"),
    ("decided_share", "fraction"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)

#: The per-layer metrics, in print order, with their units.  Layers a
#: workload does not run report 0.
PER_LAYER = (
    ("core.parse_ms", "ms"),
    ("core.translation_ms", "ms"),
    ("embeddings.search_ms", "ms"),
    ("core.subgraph_ms", "ms"),
    ("core.encode_ms", "ms"),
    ("smtlib.print_ms", "ms"),
    ("smtlib.parse_ms", "ms"),
    ("solver.ground_ms", "ms"),
    ("solver.ground_instances", "count"),
    ("solver.simplify_ms", "ms"),
    ("solver.tseitin_ms", "ms"),
    ("solver.clauses", "count"),
    ("solver.preprocess_ms", "ms"),
    ("solver.load_ms", "ms"),
    ("solver.search_ms", "ms"),
    ("solver.propagations", "count"),
    ("solver.conflicts", "count"),
    ("solver.certify_ms", "ms"),
    ("core.verify_self_ms", "ms"),
    ("core.verify_checks", "count"),
    ("core.caches.translation_hit_ratio", "ratio"),
    ("core.caches.subgraph_hit_ratio", "ratio"),
    ("core.caches.verification_hit_ratio", "ratio"),
    ("core.segmenter_ms", "ms"),
    ("core.segmenter_calls", "count"),
    ("nlp.tokenizer_ms", "ms"),
    ("core.extraction_self_ms", "ms"),
    ("core.update_reextracted_share", "fraction"),
    ("llm.complete_ms", "ms"),
    ("llm.cache_hit_ratio", "ratio"),
    ("core.hierarchy_ms", "ms"),
    ("embeddings.index_ms", "ms"),
    ("registry.warm_hit_ratio", "ratio"),
    ("registry.evictions", "count"),
    ("store.load_ms", "ms"),
    ("store.commit_ms", "ms"),
    ("jobs.run_self_ms", "ms"),
    ("jobs.checkpoint_append_ms", "ms"),
    ("jobs.checkpoint_appends", "count"),
    ("server.handle_query_self_ms", "ms"),
    ("server.admission_wait_ms", "ms"),
    ("server.http_overhead_ms", "ms"),
    ("server.shed_share", "fraction"),
)

#: Samples a run needs so that ten lie beyond its p95.
P95_SAMPLES = min_samples_for(95)


@dataclass(slots=True)
class Context:
    """One invocation's settings and scratch space."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    root: Path  # checkout root (holds src/ and perfbench/)
    workdir: Path  # scratch inside the checkout, removed at exit
    tiny: bool = False  # test-sized run: small inputs, one set-up
    #: The machine's CPU count: ``fleet``'s job workers.
    nproc: int = field(default_factory=lambda: os.cpu_count() or 1)
    #: Per-layer figures taken during a traced set-up (``store.commit_ms``).
    setup_layers: dict = field(default_factory=dict)
    #: Host-speed probes taken between operations and around set-ups.
    speed: HostSpeed = field(default_factory=HostSpeed)

    @property
    def setup_repeats(self) -> int:
        return 1 if self.tiny or self.trace else 3

    @property
    def min_ops(self) -> int:
        return 0 if self.trace else P95_SAMPLES

    def rng(self, *parts) -> random.Random:
        """A generator keyed by the seed and ``parts`` (str seeds hash
        with SHA-512, independent of ``PYTHONHASHSEED``)."""
        return random.Random("/".join(str(p) for p in (self.seed, *parts)))


@dataclass(slots=True)
class Op:
    """One operation as the client saw it.

    ``seconds`` is wall time until the run normalizes it to
    reference-speed time; ``wall`` then keeps the wall time.
    """

    seconds: float
    ok: bool = True
    verdicts: tuple[str, ...] = ()
    key: object = None  # what the post-run checks look the op up by
    status: int = 0  # HTTP status, for served requests (0: no reply)
    started: float = 0.0  # perf_counter when the op was sent (or due)
    wall: float = 0.0


@dataclass(slots=True)
class Phase:
    """A measured phase: its operations and its length in seconds."""

    ops: list[Op] = field(default_factory=list)
    seconds: float = 0.0

    def extend(self, other: "Phase") -> None:
        self.ops.extend(other.ops)
        self.seconds += other.seconds


def cycle_count(ctx: "Context", ops_per_cycle: int, nominal_seconds: float) -> int:
    """Cycles one run does: those that take ``ctx.seconds`` on the reference
    host (``nominal_seconds`` each), and at least enough for the p95.

    The work of a run is fixed by its settings, not by how fast the host
    happens to be while it runs: every seed and every commit then does the
    same operations, a faster commit finishes sooner, and the tail
    percentiles always fall on the same operations.
    """
    wanted = max(1, round(ctx.seconds / nominal_seconds))
    return max(wanted, -(-ctx.min_ops // ops_per_cycle))


def run_cycles(cycle, cycles: int, first: int = 0) -> Phase:
    """Closed loop over cycles ``first .. first + cycles - 1``."""
    phase = Phase()
    for k in range(first, first + cycles):
        phase.extend(cycle(k))
    return phase


def _latencies(ops: list[Op]) -> list[float]:
    """Per-op latencies where a failed op counts as at least as slow as
    the slowest successful one (a failure misses any latency limit)."""
    ok = [op.seconds for op in ops if op.ok]
    ceiling = max(ok, default=0.0)
    return [op.seconds if op.ok else max(op.seconds, ceiling) for op in ops]


def latency_ms(ops: list[Op], q: float) -> float:
    return percentile(_latencies(ops), q) * 1e3


def verdict_shares(ops: list[Op]) -> tuple[float, float, dict[str, int]]:
    """``(success share, decided share, verdict counts)``."""
    attempted = len(ops)
    failed = sum(not op.ok for op in ops)
    counts: dict[str, int] = {}
    for op in ops:
        for verdict in op.verdicts:
            counts[verdict] = counts.get(verdict, 0) + 1
    answered = sum(counts.values())
    unknown = counts.get("UNKNOWN", 0)
    success = 1.0 - failed / attempted if attempted else 0.0
    decided = 1.0 - unknown / answered if answered else 0.0
    return success, decided, dict(sorted(counts.items()))


def throughput(phase: Phase) -> float:
    ok = sum(op.ok for op in phase.ops)
    return ok / phase.seconds if phase.seconds > 0 else 0.0


def end_to_end(
    throughput_phase: Phase,
    latency_ops: list[Op],
    all_ops: list[Op],
    *,
    setup_seconds: list[float],
    peak_rss_mb: float,
) -> dict[str, float]:
    success, decided, _counts = verdict_shares(all_ops)
    return {
        "throughput_per_s": throughput(throughput_phase),
        "latency_p50_ms": latency_ms(latency_ops, 50),
        "latency_p95_ms": latency_ms(latency_ops, 95),
        "success_share": success,
        "decided_share": decided,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_seconds),
    }


def wall_metrics(phase: Phase, setup_wall: list[float]) -> dict:
    """The timing metrics in wall time, for the detail record (``phase``
    already normalized, its ops' wall times in ``op.wall``)."""
    ops = [Op(op.wall, ok=op.ok) for op in phase.ops]
    out = partial_end_to_end(Phase(ops, sum(op.seconds for op in ops)), ops)
    out["setup_s"] = statistics.median(setup_wall) if setup_wall else None
    return out


def overhead(untraced: dict, traced: dict) -> dict:
    """Traced minus untraced, per metric both halves could report."""
    return {
        name: traced[name] - untraced[name]
        for name in untraced
        if traced.get(name) is not None and untraced[name] is not None
    }


def partial_end_to_end(throughput_phase: Phase, latency_ops: list[Op]) -> dict:
    """The timing metrics one half of a traced run can support; a
    percentile without ten samples beyond it is reported as ``None``."""
    out: dict[str, float | None] = {"throughput_per_s": throughput(throughput_phase)}
    for name, q in (("latency_p50_ms", 50), ("latency_p95_ms", 95)):
        try:
            out[name] = latency_ms(latency_ops, q)
        except InsufficientSamples:
            out[name] = None
    return out


def quarantined(root: Path) -> list[str]:
    """``store: failures`` for every snapshot the program quarantined under
    ``root`` (a snapshot that failed its checks while loading)."""
    return [
        f"{report.parents[2].name}: {'; '.join(json.loads(report.read_text())['failures'])}"
        for report in sorted(root.glob("**/quarantine/*/report.json"))
    ]


def digest(mapping: dict) -> str:
    """Order-independent digest of a ``key -> verdicts`` mapping."""
    canonical = json.dumps(
        sorted([json.dumps(k), v] for k, v in mapping.items()), sort_keys=True
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def ratio(hits: float, misses: float) -> float:
    total = hits + misses
    return hits / total if total else 0.0


#: The program calls an operation of an in-process workload makes; spans
#: outside them (input generation, reference checks) are not the program's.
OPERATION_LAYERS = ("core.query", "core.update", "jobs.run")


def layer_metrics(trace, n_ops: int, *, under=OPERATION_LAYERS) -> dict[str, float]:
    """Per-operation layer figures from a trace; timed layers count only
    spans beneath one of the ``under`` layers (the operations)."""
    n = max(n_ops, 1)
    counts = trace.counts

    def ms(layer, **kw):
        return trace.layer_seconds(layer, under=kw.pop("under", under), **kw) * 1e3 / n

    def per_op(counter):
        return counts.get(counter, 0) / n

    questions = counts.get("core.query.questions", 0)
    llm_calls = counts.get("llm.cached.calls", 0)
    llm_misses = trace.layer_calls("llm.complete")
    out = {
        "core.parse_ms": ms("core.parse", under="core.query"),
        "core.translation_ms": ms("core.translation"),
        "embeddings.search_ms": ms("embeddings.search"),
        "core.subgraph_ms": ms("core.subgraph"),
        "core.encode_ms": ms("core.encode"),
        "smtlib.print_ms": ms("smtlib.print"),
        "smtlib.parse_ms": ms("smtlib.parse"),
        "solver.ground_ms": ms("solver.ground"),
        "solver.ground_instances": per_op("core.query.ground_instances"),
        "solver.simplify_ms": ms("solver.simplify"),
        "solver.tseitin_ms": ms("solver.tseitin"),
        "solver.clauses": per_op("solver.tseitin.items"),
        "solver.preprocess_ms": ms("solver.preprocess"),
        "solver.load_ms": ms("solver.load", not_under="solver.search"),
        "solver.search_ms": ms("solver.search"),
        "solver.propagations": per_op("core.query.propagations"),
        "solver.conflicts": per_op("core.query.conflicts"),
        "solver.certify_ms": ms("solver.certify"),
        "core.verify_self_ms": trace.self_seconds("core.verify") * 1e3 / n,
        "core.verify_checks": counts.get("solver.check.calls", 0) / max(questions, 1),
        "core.caches.translation_hit_ratio": ratio(
            counts.get("core.query.translation_hits", 0),
            counts.get("core.query.translation_misses", 0),
        ),
        "core.caches.subgraph_hit_ratio": ratio(
            counts.get("core.query.subgraph_hits", 0),
            counts.get("core.query.subgraph_misses", 0),
        ),
        "core.caches.verification_hit_ratio": ratio(
            counts.get("core.query.verification_hits", 0),
            counts.get("core.query.verification_misses", 0),
        ),
        "core.segmenter_ms": ms("core.segmenter"),
        "core.segmenter_calls": trace.layer_calls("core.segmenter") / n,
        "nlp.tokenizer_ms": ms("nlp.tokenizer"),
        "core.extraction_self_ms": trace.self_seconds("core.extraction") * 1e3 / n,
        "core.update_reextracted_share": ratio(
            counts.get("core.update.segments_reextracted", 0),
            counts.get("core.update.segments_total", 0)
            - counts.get("core.update.segments_reextracted", 0),
        ),
        "llm.complete_ms": ms("llm.complete"),
        "llm.cache_hit_ratio": ratio(llm_calls - llm_misses, llm_misses)
        if llm_calls
        else 0.0,
        "core.hierarchy_ms": ms("core.hierarchy"),
        "embeddings.index_ms": ms("embeddings.index"),
        "store.load_ms": ms("store.load"),
        "jobs.run_self_ms": trace.self_seconds("jobs.run") * 1e3 / n,
        "jobs.checkpoint_append_ms": ms("jobs.checkpoint_append"),
        "jobs.checkpoint_appends": trace.layer_calls("jobs.checkpoint_append") / n,
        "server.handle_query_self_ms": trace.self_seconds("server.handle_query") * 1e3 / n,
        "server.admission_wait_ms": ms("server.admission"),
    }
    return out


def stage_coverage(trace, client_seconds: float) -> dict[str, float]:
    """How much of the client-observed time the traced spans account for.

    ``roots_over_client``: the workloads' public calls (``query``,
    ``update``, ``JobRunner.run``) over the client's op time;
    ``stages_over_query``: the query spans' direct children (parse,
    translate, subgraph, encode, verify, and the SMT-LIB print that keys
    the verification cache) over the query spans.
    """
    roots = sum(
        s[3] - s[2]
        for s in trace.spans.values()
        if s[4] == 0 and s[1] in OPERATION_LAYERS
    )
    queries = trace.spans_of("core.query")
    query_seconds = sum(s[3] - s[2] for s in queries)
    stage_seconds = sum(trace.child_seconds(s) for s in queries)
    return {
        "roots_over_client": roots / client_seconds if client_seconds else 0.0,
        "stages_over_query": stage_seconds / query_seconds if query_seconds else 0.0,
    }
