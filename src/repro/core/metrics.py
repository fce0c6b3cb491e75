"""Per-query and per-batch pipeline metrics.

Phase 3 is a four-stage pipeline (translate, subgraph, encode, verify)
preceded by LLM parameter extraction.  :class:`PipelineMetrics` records the
wall time each stage cost, how often the per-model memoization caches
answered instead, and the solver work the verification stage performed.
One instance is attached to every :class:`~repro.core.pipeline.QueryOutcome`;
:meth:`PipelineMetrics.merge` folds the per-query instances into a
batch's :class:`~repro.jobs.JobResult` metrics.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, fields


class LatencyReservoir:
    """Deterministic bounded latency sketch with mergeable percentiles.

    Stage-seconds sums answer "how much did the batch cost" but not "what
    did the slowest 1% of requests see" — the question a serving daemon's
    SLO lives on.  This reservoir records samples into log-spaced buckets
    (:data:`PER_OCTAVE` per factor of two above a 1 µs floor), so it is:

    * **bounded** — a fixed array of integers, independent of sample count;
    * **deterministic** — the same multiset of samples produces the same
      state regardless of arrival or merge order (no RNG, unlike classic
      reservoir sampling);
    * **mergeable** — :meth:`merge` adds bucket counts elementwise, so
      per-worker reservoirs fold into one exact-as-if-central sketch.

    Quantiles interpolate geometrically inside the winning bucket, so the
    relative error is bounded by the bucket width (≈ 2^(1/8) ≈ 9%); count,
    sum, min, and max are tracked exactly.  Thread-safe: concurrent
    ``record`` calls from server worker threads take a small lock.
    """

    PER_OCTAVE = 8
    _FLOOR = 1e-6  # 1 µs: everything faster lands in bucket 0
    _OCTAVES = 40  # ceiling ≈ 1e-6 * 2^40 s ≈ 12.7 days
    BUCKETS = PER_OCTAVE * _OCTAVES

    __slots__ = ("_lock", "_buckets", "count", "sum", "min", "max")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._buckets = [0] * self.BUCKETS
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = 0.0

    def _index(self, seconds: float) -> int:
        if seconds <= self._FLOOR:
            return 0
        index = int(math.log2(seconds / self._FLOOR) * self.PER_OCTAVE)
        return min(index, self.BUCKETS - 1)

    def record(self, seconds: float) -> None:
        seconds = max(0.0, float(seconds))
        with self._lock:
            self._buckets[self._index(seconds)] += 1
            self.count += 1
            self.sum += seconds
            self.min = min(self.min, seconds)
            self.max = max(self.max, seconds)

    def merge(self, other: "LatencyReservoir") -> None:
        """Fold ``other`` in; the result equals a single central reservoir
        that saw both sample streams (merge-order independent)."""
        with other._lock:
            buckets = list(other._buckets)
            count, total = other.count, other.sum
            lo, hi = other.min, other.max
        with self._lock:
            for i, n in enumerate(buckets):
                if n:
                    self._buckets[i] += n
            self.count += count
            self.sum += total
            self.min = min(self.min, lo)
            self.max = max(self.max, hi)

    def quantile(self, q: float) -> float:
        """The latency at rank ``ceil(q * count)`` (0 for an empty sketch)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if self.count == 0:
                return 0.0
            rank = max(1, math.ceil(q * self.count))
            seen = 0
            for index, n in enumerate(self._buckets):
                if n == 0:
                    continue
                if seen + n >= rank:
                    lo = self._FLOOR * 2 ** (index / self.PER_OCTAVE)
                    hi = lo * 2 ** (1 / self.PER_OCTAVE)
                    # Geometric interpolation by position within the bucket,
                    # clamped to the exact extremes the sketch tracked.
                    position = (rank - seen) / n
                    value = lo * (hi / lo) ** position
                    return min(max(value, self.min), self.max)
                seen += n
        return self.max  # pragma: no cover - unreachable (counts sum to count)

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def mean(self) -> float:
        with self._lock:
            return self.sum / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, object]:
        return {
            "count": self.count,
            "mean_seconds": round(self.mean, 6),
            "min_seconds": round(self.min, 6) if self.count else 0.0,
            "max_seconds": round(self.max, 6),
            "p50_seconds": round(self.p50, 6),
            "p95_seconds": round(self.p95, 6),
            "p99_seconds": round(self.p99, 6),
        }


@dataclass(slots=True)
class PipelineMetrics:
    """Cost accounting for one query (or, merged, for one batch)."""

    queries: int = 1
    parse_seconds: float = 0.0  # normalization + LLM parameter extraction
    translate_seconds: float = 0.0
    subgraph_seconds: float = 0.0
    encode_seconds: float = 0.0
    verify_seconds: float = 0.0
    total_seconds: float = 0.0
    translation_hits: int = 0
    translation_misses: int = 0
    subgraph_hits: int = 0
    subgraph_misses: int = 0
    verification_hits: int = 0
    verification_misses: int = 0
    solver_conflicts: int = 0
    solver_propagations: int = 0
    translation_fallbacks: int = 0  # terms kept verbatim for lack of a match
    query_errors: int = 0  # queries isolated as ErrorOutcome in a batch
    degraded_queries: int = 0  # queries that entered the degradation ladder
    ladder_escalations: int = 0  # budget-escalation rungs executed
    ladder_decompositions: int = 0  # decomposition rungs executed
    ladder_rescues: int = 0  # degraded queries that reached a decided verdict
    certifications_run: int = 0  # verifications that ran the certifier
    certification_failures: int = 0  # soundness alarms (verdict demoted to UNKNOWN)
    certification_quarantines: int = 0  # offending formulas persisted to disk
    # Model-store accounting (tracked on PolicyPipeline.metrics, which
    # covers the pipeline's whole lifetime rather than one query).
    snapshot_saves: int = 0  # snapshots committed through save_model
    snapshot_loads: int = 0  # warm starts served from a snapshot
    snapshot_quarantines: int = 0  # corrupt snapshots quarantined during loads
    snapshot_rebuilds: int = 0  # loads that fell back to policy-text re-extraction
    snapshot_journal_recoveries: int = 0  # journal roll-forward/back events
    # Job-supervision accounting (repro.jobs): per-run counters attached
    # to each JobResult.metrics.
    queue_high_water: int = 0  # peak admission depth (merged by max)
    shed_queries: int = 0  # queries refused by admission control
    stalled_queries: int = 0  # hung queries converted to UNKNOWN + StallReport
    workers_replaced: int = 0  # workers the watchdog cancelled and replaced
    checkpoint_records: int = 0  # outcomes appended to the checkpoint journal
    checkpoint_restored: int = 0  # outcomes restored from the journal on resume
    jobs_aborted: int = 0  # graceful drains (SIGINT/SIGTERM or request_drain)
    # Multi-policy registry accounting (repro.registry): tracked on
    # PolicyPipeline.metrics, like the snapshot counters above.
    registry_hits: int = 0  # get_model served from the warm LRU
    registry_misses: int = 0  # get_model that had to load a shard from disk
    registry_evictions: int = 0  # warm models evicted by the LRU bound
    policies_minted: int = 0  # policies generated + committed by mint
    fleet_queries: int = 0  # query_fleet invocations
    fleet_companies: int = 0  # per-company queries fanned out by query_fleet
    # Serving-daemon accounting (repro.server): tracked on the server's
    # own PipelineMetrics and merged with the pipeline's for /stats.
    server_requests: int = 0  # requests admitted and executed
    server_reloads: int = 0  # hot epoch swaps performed by /reload
    server_drains: int = 0  # graceful drains begun (signal or /drain)
    deadline_refusals: int = 0  # requests refused because the deadline expired
    queue_depth: int = 0  # admission depth gauge (merged by max, like high-water)
    # LLM provider boundary accounting (repro.providers + repro.resilience):
    # synced onto PolicyPipeline.metrics from the wrapper stack's UsageStats
    # by sync_resilience_metrics(), so they are lifetime absolutes like the
    # snapshot counters above.
    llm_retries: int = 0  # failed completions replayed by RetryingLLM
    llm_giveups: int = 0  # completions abandoned after the retry budget
    retry_after_honored: int = 0  # retries that slept on a server-advised hint
    breaker_state: int = 0  # gauge: 0 closed, 1 half-open, 2 open (merged by max)
    provider_calls: int = 0  # completions served by a remote HTTP provider
    provider_rate_limited: int = 0  # 429 rejections the provider surfaced
    cassette_records: int = 0  # prompt->completion pairs appended to a cassette
    cassette_replays: int = 0  # completions served from a cassette
    cassette_misses: int = 0  # replay lookups the cassette could not serve
    # Fleet-integrity accounting (repro.integrity): typed damage findings
    # surfaced by loads/scans, repairs that healed them, and background
    # scrubber progress.  Tracked on PolicyPipeline.metrics (lifetime
    # absolutes) and on the serving daemon's own metrics for the scrubber.
    integrity_findings: int = 0  # typed damage findings surfaced
    integrity_repairs: int = 0  # findings healed (quarantine + fallback/rebuild)
    integrity_unrepairable: int = 0  # findings with no valid artifact to heal from
    scrub_passes: int = 0  # full sweeps the background scrubber completed
    scrub_paused: int = 0  # scrub ticks skipped because queries were in flight
    scrub_artifacts: int = 0  # snapshots hash-verified by the scrubber
    #: Tail-latency sketch (p50/p95/p99) for served requests; ``None``
    #: everywhere metrics must stay byte-identical to prior releases —
    #: only the serving layer allocates one.
    latency: "LatencyReservoir | None" = None

    @property
    def cache_hits(self) -> int:
        return self.translation_hits + self.subgraph_hits + self.verification_hits

    @property
    def cache_misses(self) -> int:
        return (
            self.translation_misses
            + self.subgraph_misses
            + self.verification_misses
        )

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        if total == 0:
            return 0.0
        return self.cache_hits / total

    #: Gauges folded by max instead of sum: a batch's peak queue depth is
    #: the largest any constituent saw, not their total; a merged breaker
    #: state reports the most degraded constituent (open > half-open >
    #: closed, by encoding).
    _MAX_MERGED = frozenset({"queue_high_water", "queue_depth", "breaker_state"})

    #: Human-readable names for the ``breaker_state`` gauge encoding.
    BREAKER_STATES = ("closed", "half-open", "open")

    def merge(self, other: "PipelineMetrics") -> None:
        """Fold ``other`` into this instance (counters add, gauges max,
        latency reservoirs bucket-merge)."""
        for spec in fields(self):
            mine, theirs = getattr(self, spec.name), getattr(other, spec.name)
            if spec.name == "latency":
                if theirs is not None:
                    if mine is None:
                        mine = LatencyReservoir()
                        self.latency = mine
                    mine.merge(theirs)
            elif spec.name in self._MAX_MERGED:
                setattr(self, spec.name, max(mine, theirs))
            else:
                setattr(self, spec.name, mine + theirs)

    def as_dict(self) -> dict[str, object]:
        out: dict[str, object] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name == "latency":
                # Omitted when absent so traces without a serving layer
                # stay byte-identical to prior releases.
                if value is not None:
                    out[spec.name] = value.as_dict()
                continue
            if spec.name == "breaker_state":
                out[spec.name] = self.BREAKER_STATES[value]
                continue
            out[spec.name] = round(value, 6) if isinstance(value, float) else value
        out["cache_hit_rate"] = round(self.hit_rate, 4)
        return out

    def render(self) -> str:
        """Human-readable block for the CLI ``--stats`` flag."""
        lines = [
            f"queries: {self.queries}",
            "stage seconds: "
            f"parse {self.parse_seconds:.3f}, "
            f"translate {self.translate_seconds:.3f}, "
            f"subgraph {self.subgraph_seconds:.3f}, "
            f"encode {self.encode_seconds:.3f}, "
            f"verify {self.verify_seconds:.3f} "
            f"(total {self.total_seconds:.3f})",
            f"translation cache: {self.translation_hits} hits / "
            f"{self.translation_misses} misses",
            f"subgraph cache: {self.subgraph_hits} hits / "
            f"{self.subgraph_misses} misses",
            f"verification cache: {self.verification_hits} hits / "
            f"{self.verification_misses} misses",
            f"solver: {self.solver_conflicts} conflicts, "
            f"{self.solver_propagations} propagations",
            f"resilience: {self.query_errors} errors, "
            f"{self.degraded_queries} degraded "
            f"({self.ladder_rescues} rescued via "
            f"{self.ladder_escalations} escalations / "
            f"{self.ladder_decompositions} decompositions), "
            f"{self.translation_fallbacks} translation fallbacks",
            f"certification: {self.certifications_run} run, "
            f"{self.certification_failures} soundness alarms "
            f"({self.certification_quarantines} quarantined)",
            f"store: {self.snapshot_saves} saves, {self.snapshot_loads} loads "
            f"({self.snapshot_quarantines} quarantined, "
            f"{self.snapshot_rebuilds} rebuilt, "
            f"{self.snapshot_journal_recoveries} journal recoveries)",
            f"jobs: queue high-water {self.queue_high_water}, "
            f"{self.shed_queries} shed, {self.stalled_queries} stalled "
            f"({self.workers_replaced} workers replaced); "
            f"checkpoint: {self.checkpoint_records} written, "
            f"{self.checkpoint_restored} restored, "
            f"{self.jobs_aborted} drains",
            f"registry: {self.registry_hits} warm hits / "
            f"{self.registry_misses} shard loads "
            f"({self.registry_evictions} evicted); "
            f"{self.policies_minted} minted; "
            f"fleet: {self.fleet_queries} fan-outs over "
            f"{self.fleet_companies} companies",
            f"serving: {self.server_requests} served, "
            f"{self.deadline_refusals} deadline refusals, "
            f"{self.server_reloads} reloads, {self.server_drains} drains; "
            f"queue depth {self.queue_depth}",
            f"llm boundary: breaker {self.BREAKER_STATES[self.breaker_state]}; "
            f"{self.llm_retries} retries "
            f"({self.retry_after_honored} on server hints), "
            f"{self.llm_giveups} giveups; "
            f"provider: {self.provider_calls} calls, "
            f"{self.provider_rate_limited} rate-limited; "
            f"cassette: {self.cassette_records} recorded, "
            f"{self.cassette_replays} replayed, "
            f"{self.cassette_misses} misses",
            f"integrity: {self.integrity_findings} findings "
            f"({self.integrity_repairs} repaired, "
            f"{self.integrity_unrepairable} unrepairable); "
            f"scrub: {self.scrub_passes} passes, "
            f"{self.scrub_artifacts} artifacts verified, "
            f"{self.scrub_paused} paused ticks",
        ]
        if self.latency is not None and self.latency.count:
            lines.append(
                f"latency: p50 {self.latency.p50 * 1e3:.1f} ms, "
                f"p95 {self.latency.p95 * 1e3:.1f} ms, "
                f"p99 {self.latency.p99 * 1e3:.1f} ms "
                f"({self.latency.count} samples)"
            )
        return "\n".join(lines)


def merged(parts: list[PipelineMetrics]) -> PipelineMetrics:
    """Sum a list of per-query metrics into one batch summary."""
    total = PipelineMetrics(queries=0)
    for part in parts:
        total.merge(part)
    return total
