"""Operational introspection over a composed LLM wrapper stack.

The resilience stack is built by nesting wrappers —
``CachedLLM(CircuitBreaker(RetryingLLM(ProfiledLLM(backend))))`` — and
each layer keeps its own counters (some share a
:class:`~repro.llm.client.UsageStats`, some allocate their own).  This
module walks the ``_inner``/``_fallback`` chain and folds everything
into one answer to "what is the LLM boundary doing right now": one
aggregated usage dict plus the circuit breaker's state.

:func:`sync_resilience_metrics` then projects that view onto a
:class:`~repro.core.metrics.PipelineMetrics` instance as *absolute*
values (the usage counters are lifetime totals, so assignment — not
merge — keeps repeated syncs idempotent).
:meth:`~repro.core.pipeline.PolicyPipeline.metrics_report` calls it just
before every stats report.
"""

from __future__ import annotations

from repro.core.metrics import PipelineMetrics
from repro.llm.client import UsageStats
from repro.resilience.breaker import CircuitBreaker

#: Breaker-state encoding used by the ``PipelineMetrics.breaker_state``
#: gauge; ordered by degradation so merged gauges keep the worst state.
BREAKER_STATE_CODES = {"closed": 0, "half-open": 1, "open": 2}


def llm_stack_state(llm: object) -> dict[str, object]:
    """Aggregate usage counters and breaker state across a wrapper stack.

    Walks ``_inner`` (every wrapper) and ``_fallback``
    (:class:`~repro.providers.cassette.ReplayLLM`) links, deduplicating
    shared :class:`UsageStats` objects by identity so a stack whose
    wrappers share one stats instance is not double-counted.  Works on
    any stack shape, including a bare backend (no wrappers at all).
    """
    usage = UsageStats()
    seen_stats: set[int] = set()
    seen_nodes: set[int] = set()
    breaker_state = None
    queue = [llm]
    while queue:
        node = queue.pop()
        if node is None or id(node) in seen_nodes:
            continue
        seen_nodes.add(id(node))
        stats = getattr(node, "stats", None)
        if isinstance(stats, UsageStats) and id(stats) not in seen_stats:
            seen_stats.add(id(stats))
            usage.merge(stats)
        if isinstance(node, CircuitBreaker):
            state = node.state
            # A stack with several breakers (unusual, but possible under
            # per-shard composition) reports the most degraded one.
            if breaker_state is None or (
                BREAKER_STATE_CODES[state] > BREAKER_STATE_CODES[breaker_state]
            ):
                breaker_state = state
        queue.append(getattr(node, "_inner", None))
        queue.append(getattr(node, "_fallback", None))
    return {
        "usage": usage.as_dict(),
        "breaker_state": breaker_state if breaker_state is not None else "closed",
        "has_breaker": breaker_state is not None,
    }


def sync_resilience_metrics(llm: object, metrics: PipelineMetrics) -> dict[str, object]:
    """Project the stack's current state onto ``metrics`` (absolute set).

    Returns the :func:`llm_stack_state` dict it projected.
    """
    state = llm_stack_state(llm)
    usage = state["usage"]
    metrics.llm_retries = usage["retries"]
    metrics.llm_giveups = usage["retry_giveups"]
    metrics.retry_after_honored = usage["retry_after_honored"]
    metrics.breaker_state = BREAKER_STATE_CODES[state["breaker_state"]]
    metrics.provider_calls = usage["provider_calls"]
    metrics.provider_rate_limited = usage["provider_rate_limited"]
    metrics.cassette_records = usage["cassette_records"]
    metrics.cassette_replays = usage["cassette_replays"]
    metrics.cassette_misses = usage["cassette_misses"]
    return state
