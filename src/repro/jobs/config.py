"""Tunables for supervised batch jobs.

Kept in its own module (rather than on :mod:`repro.jobs.runner`) so
:class:`~repro.core.pipeline.PipelineConfig` can carry a ``jobs`` field
without a circular import: the pipeline annotates the field lazily and the
runner imports the pipeline, never the reverse at import time.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(slots=True)
class JobConfig:
    """Supervision knobs for one :class:`~repro.jobs.runner.JobRunner`.

    The defaults keep a job byte-identical to a plain
    :meth:`~repro.core.pipeline.PolicyPipeline.query_batch` run: no
    checkpointing, no watchdog, admission bounded generously with pure
    backpressure (nothing shed).
    """

    max_workers: int | None = None  # None: min(DEFAULT_BATCH_WORKERS, n)
    # Admission queue bound: at most this many queries admitted-but-not-
    # completed at once.  Batch feeding blocks (backpressure) at the
    # bound, unless shed_above converts the overflow to an answer first.
    max_pending: int = 64
    # Load shedding: once the pending depth reaches this, further queries
    # are refused and recorded as ShedOutcome UNKNOWNs instead of
    # blocking.  Must be <= max_pending (validated below), so a set
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
    # Per-query wall-clock ceiling composed onto the solver budget: the
    # effective solver deadline is min(budget.timeout_seconds, this).
    # None leaves the configured budget untouched (the default solver
    # deadline is unchanged).
    query_timeout: float | None = None
    # Install SIGINT/SIGTERM handlers for graceful drain while run() is
    # active (main thread only; nested runners leave handlers alone).
    handle_signals: bool = True

    def __post_init__(self) -> None:
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if self.watchdog_interval is not None and self.watchdog_interval <= 0:
            raise ValueError("watchdog_interval must be > 0")
        if self.shed_above is not None and self.shed_above < 1:
            raise ValueError("shed_above must be >= 1")
        if self.shed_above is not None and self.shed_above > self.max_pending:
            raise ValueError(
                "shed_above must be <= max_pending (the shed threshold "
                "must fire before the blocking bound, or a pending depth "
                "between the two would block instead of shedding)"
            )
        if self.stall_after is not None and self.stall_after <= 0:
            raise ValueError("stall_after must be > 0")
        if self.query_timeout is not None and self.query_timeout <= 0:
            raise ValueError("query_timeout must be > 0")
