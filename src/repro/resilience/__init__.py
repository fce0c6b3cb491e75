"""Resilience layer: retries, circuit breaking, and verdict degradation.

Production-scale policy analysis only survives contact with real traffic
when failures are contained and partial results are first-class.  This
package provides the three containment mechanisms the pipeline threads
through its layers:

* the **LLM boundary** — :class:`RetryPolicy` / :class:`RetryingLLM`
  (bounded deterministic backoff) and :class:`CircuitBreaker` (fail fast
  once the backend is down), both implementing
  :class:`~repro.llm.client.LLMClient` and composable with
  :class:`~repro.llm.client.CachedLLM`;
* the **solver boundary** — :class:`BudgetLadder` /
  :func:`execute_ladder`, which escalates budget-limited UNKNOWN verdicts,
  falls back to per-data-branch decomposition, then re-solves under other
  decision seeds, reporting every step in a :class:`DegradationReport`;
* the **batch boundary** — fault isolation lives in
  :meth:`repro.core.pipeline.PolicyPipeline.query_batch`, which converts
  per-query failures into structured
  :class:`~repro.core.pipeline.ErrorOutcome` records instead of aborting
  the executor.

Everything here contains failures *inside* one process run; the layer
above it — :mod:`repro.jobs` — supervises the run itself (hung-worker
watchdog, admission control, crash-resumable checkpoints).  The division
of labour: an exception is this package's problem, a hang or a kill is a
job-supervision problem.  Note the isolation contract both layers share:
only :class:`Exception` is ever converted to an
:class:`~repro.core.pipeline.ErrorOutcome`; ``BaseException``
(``KeyboardInterrupt``, ``SystemExit``) always propagates as job
cancellation.

Deterministic fault injectors for chaos testing live in
:mod:`repro.resilience.faults` (imported explicitly, not re-exported here —
they are test infrastructure).
"""

from repro.resilience.breaker import CircuitBreaker
from repro.resilience.degradation import (
    BudgetLadder,
    DegradationReport,
    DegradationStep,
    execute_ladder,
    is_budget_limited,
)
from repro.resilience.retry import RetryingLLM, RetryPolicy

__all__ = [
    "BudgetLadder",
    "CircuitBreaker",
    "DegradationReport",
    "DegradationStep",
    "RetryPolicy",
    "RetryingLLM",
    "execute_ladder",
    "is_budget_limited",
]
