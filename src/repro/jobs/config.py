"""Tunables for supervised batch jobs.

Kept in its own module (rather than on :mod:`repro.jobs.runner`) so
:class:`~repro.core.pipeline.PipelineConfig` can carry a ``jobs`` field
without a circular import: the pipeline annotates the field lazily and the
runner imports the pipeline, never the reverse at import time.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.jobs.admission import check_bounds
from repro.solver.interface import SolverBudget

#: Worker threads a job starts when ``JobConfig.max_workers`` is None
#: (fewer when it has fewer questions to answer).
DEFAULT_BATCH_WORKERS = 8


@dataclass(slots=True)
class JobConfig:
    """Supervision knobs for one :class:`~repro.jobs.runner.JobRunner`.

    The defaults are what
    :meth:`~repro.core.pipeline.PolicyPipeline.query_batch` runs with
    (it also turns ``handle_signals`` off): no checkpointing, no
    watchdog, admission bounded generously with pure backpressure
    (nothing shed).
    """

    max_workers: int | None = None  # None: min(DEFAULT_BATCH_WORKERS, n)
    # Admission bound: at most this many queries admitted-but-not-
    # completed at once.  Batch feeding blocks (backpressure) at the
    # bound, unless shed_above converts the overflow to an answer first.
    max_pending: int = 64
    # Load shedding: once the pending depth reaches this, further queries
    # are refused and recorded as ShedOutcome UNKNOWNs instead of
    # blocking.  Must be <= max_pending (check_bounds), so a set
    # threshold always fires before the blocking bound — admission then
    # never blocks.  None disables shedding entirely: admission only
    # ever blocks (pure backpressure), nothing is shed.
    shed_above: int | None = None
    # Seconds an in-flight query may go without a heartbeat before the
    # watchdog declares it stalled, cancels it cooperatively, replaces
    # the worker, and records UNKNOWN + StallReport.  None disables the
    # watchdog entirely.
    stall_after: float | None = None
    # Watchdog scan period; None derives stall_after / 4.  Tests that
    # drive a fake clock call JobRunner.scan_stalls() directly and pass
    # watchdog_thread=False instead.
    watchdog_interval: float | None = None
    watchdog_thread: bool = True
    # Directory for the append-only checkpoint journal; None disables
    # checkpointing (and therefore resume).
    checkpoint_dir: str | Path | None = None
    # Per-query wall-clock ceiling composed onto the solver budget by
    # query_budget(); None leaves the configured budget untouched.
    query_timeout: float | None = None
    # Install SIGINT/SIGTERM handlers for graceful drain while run() is
    # active (main thread only; nested runners leave handlers alone).
    handle_signals: bool = True

    def __post_init__(self) -> None:
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        check_bounds(self.max_pending, self.shed_above)
        if self.watchdog_interval is not None and self.watchdog_interval <= 0:
            raise ValueError("watchdog_interval must be > 0")
        if self.stall_after is not None and self.stall_after <= 0:
            raise ValueError("stall_after must be > 0")
        if self.query_timeout is not None and self.query_timeout <= 0:
            raise ValueError("query_timeout must be > 0")

    def query_budget(self, base: SolverBudget) -> SolverBudget | None:
        """The budget each query runs under: ``base`` tightened to
        ``query_timeout``, or None (the pipeline's own) without one."""
        if self.query_timeout is None:
            return None
        return base.tightened(self.query_timeout)
