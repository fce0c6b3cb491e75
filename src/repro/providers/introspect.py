"""Operational introspection over a composed LLM wrapper stack.

The resilience stack is built by nesting wrappers —
``CachedLLM(CircuitBreaker(RetryingLLM(ProfiledLLM(backend))))`` — and
each layer keeps its own counters (some share a
:class:`~repro.llm.client.UsageStats`, some allocate their own).  This
module walks the ``_inner``/``_fallback`` chain and folds everything
into one answer to "what is the LLM boundary doing right now": one
aggregated usage dict plus the circuit breaker's state.  These counters
have no copy elsewhere: the daemon's ``/stats`` reports this view as
``llm``, and the CLI's ``--stats`` block prints its "llm boundary:" line
from it.
"""

from __future__ import annotations

from repro.llm.client import UsageStats
from repro.resilience.breaker import CircuitBreaker

#: Breaker states ordered by degradation, so a stack with several
#: breakers reports the worst one.
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

