"""Supervised batch jobs: the :class:`JobRunner`, the one batch executor.

Every question list runs here: ``PolicyPipeline.query_batch`` and
``run_job``, the CLI ``batch`` command, ``query_fleet`` and the daemon's
``/fleet``.  Workers answer questions in parallel and isolate per-query
*exceptions* as :class:`~repro.core.pipeline.ErrorOutcome` slots.  Three
supervision layers, each off or generous by default, serve a
long-running audit:

* **liveness** — per-query heartbeats scanned by a
  :class:`~repro.jobs.watchdog.Watchdog`; a stalled query is cooperatively
  cancelled, its worker replaced, and its slot filled with a structured
  UNKNOWN (:class:`StallOutcome` carrying a
  :class:`~repro.jobs.watchdog.StallReport`) — never a silent hang;
* **admission** — the :class:`~repro.jobs.admission.AdmissionGate` the
  serving daemon also uses: batch feeding blocks at ``max_pending``
  (backpressure); with
  :attr:`~repro.jobs.config.JobConfig.shed_above` set, overflow queries
  are *shed* to an immediate UNKNOWN (:class:`ShedOutcome`) instead of
  queued without bound;
* **durability** — completed outcomes stream into the append-only
  checkpoint journal (:mod:`repro.jobs.checkpoint`); after a crash,
  :meth:`JobRunner.resume` restores every committed result and re-executes
  only the pending queries, byte-identical to an uninterrupted run.

SIGINT/SIGTERM trigger a graceful drain: no new queries start, in-flight
queries finish and are checkpointed, and the :class:`JobResult` comes back
``aborted`` with its pending set intact for a later ``resume``.
``KeyboardInterrupt``/``SystemExit`` raised *inside* a worker are never
converted into per-query errors — they abort the job and propagate.
Whatever ends a run early, queued questions never start: they give their
admission slots back before :meth:`JobRunner.run` returns or raises.
"""

from __future__ import annotations

import queue
import signal
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.metrics import PipelineMetrics, merged
from repro.core.pipeline import (
    ErrorOutcome,
    PolicyModel,
    PolicyPipeline,
    QueryOutcome,
)
from repro.core.verify import Verdict
from repro.errors import JobError
from repro.jobs.admission import AdmissionGate
from repro.jobs.checkpoint import (
    JOURNAL_NAME,
    KIND_ERROR,
    KIND_OUTCOME,
    KIND_SHED,
    KIND_STALL,
    CheckpointJournal,
    CheckpointedOutcome,
    JournalRecovery,
    questions_digest,
    read_journal,
    restore_outcome,
)
from repro.jobs.config import DEFAULT_BATCH_WORKERS, JobConfig
from repro.jobs.watchdog import (
    Clock,
    MonotonicClock,
    StallReport,
    Watchdog,
    WorkerHeartbeat,
)
from repro.store.atomic import StepHook


@dataclass(slots=True)
class StallOutcome:
    """UNKNOWN verdict for a query whose worker the watchdog replaced.

    Takes the hung query's slot so the batch completes with order
    preserved; the attached :class:`StallReport` says which worker hung,
    in which stage, and for how long.
    """

    question: str
    stall: StallReport
    metrics: PipelineMetrics = field(default_factory=PipelineMetrics)

    @property
    def verdict(self) -> Verdict:
        return Verdict.UNKNOWN

    @property
    def failed(self) -> bool:
        return False

    def summary(self) -> str:
        return (
            f"query: {self.question}\n"
            f"verdict: UNKNOWN (stalled)\n"
            f"{self.stall.summary()}"
        )

    def as_dict(self, *, include_metrics: bool = False) -> dict[str, object]:
        trace: dict[str, object] = {
            "question": self.question,
            "stall": self.stall.as_dict(),
        }
        if include_metrics:
            trace["metrics"] = self.metrics.as_dict()
        return trace


@dataclass(slots=True)
class ShedOutcome:
    """UNKNOWN verdict for a query refused by admission control.

    Load shedding is an explicit, recorded answer — the caller learns the
    system was saturated rather than waiting on an unbounded queue.
    """

    question: str
    pending_at_admission: int
    shed_above: int
    metrics: PipelineMetrics = field(default_factory=PipelineMetrics)

    @property
    def verdict(self) -> Verdict:
        return Verdict.UNKNOWN

    @property
    def failed(self) -> bool:
        return False

    def summary(self) -> str:
        return (
            f"query: {self.question}\n"
            f"verdict: UNKNOWN (shed: {self.pending_at_admission} queries "
            f"pending >= shed threshold {self.shed_above})"
        )

    def as_dict(self, *, include_metrics: bool = False) -> dict[str, object]:
        trace: dict[str, object] = {
            "question": self.question,
            "shed": {
                "pending_at_admission": self.pending_at_admission,
                "shed_above": self.shed_above,
            },
        }
        if include_metrics:
            trace["metrics"] = self.metrics.as_dict()
        return trace


#: Anything a job slot can hold once filled.
JobOutcome = (
    QueryOutcome | ErrorOutcome | StallOutcome | ShedOutcome | CheckpointedOutcome
)


@dataclass(slots=True)
class JobResult:
    """Everything one supervised job produced (or salvaged).

    ``outcomes`` is index-aligned with ``questions``; a ``None`` slot is a
    query that never ran (graceful drain) and remains pending in the
    checkpoint — ``resume`` picks it up.
    """

    questions: list[str]
    outcomes: list[JobOutcome | None]
    metrics: PipelineMetrics
    seconds: float
    max_workers: int
    aborted: bool = False
    restored: int = 0
    stalls: list[StallReport] = field(default_factory=list)
    shed: int = 0
    recovery: JournalRecovery | None = None
    checkpoint_dir: str | None = None

    def __len__(self) -> int:
        return len(self.questions)

    def __iter__(self):
        return iter(self.outcomes)

    @property
    def completed(self) -> list[JobOutcome]:
        return [o for o in self.outcomes if o is not None]

    @property
    def pending(self) -> list[int]:
        return [i for i, o in enumerate(self.outcomes) if o is None]

    @property
    def errors(self) -> list[JobOutcome]:
        return [o for o in self.outcomes if o is not None and o.failed]

    @property
    def verdicts(self) -> list[Verdict | None]:
        return [None if o is None else o.verdict for o in self.outcomes]

    def verdict_counts(self) -> dict[str, int]:
        return dict(Counter(o.verdict.value for o in self.completed))

    def summary(self) -> str:
        counts = ", ".join(
            f"{n} {v}" for v, n in sorted(self.verdict_counts().items())
        )
        line = (
            f"{len(self.completed)}/{len(self.questions)} queries in "
            f"{self.seconds:.2f}s ({self.max_workers} workers): "
            f"{counts or 'no verdicts'}"
        )
        if self.restored:
            line += f"; {self.restored} restored from checkpoint"
        if self.stalls:
            line += f"; {len(self.stalls)} stalled workers replaced"
        if self.shed:
            line += f"; {self.shed} queries shed"
        if self.aborted:
            line += f"; ABORTED with {len(self.pending)} queries pending"
        return line

    def as_dict(self) -> dict[str, object]:
        return {
            "questions": len(self.questions),
            "completed": len(self.completed),
            "pending": self.pending,
            "aborted": self.aborted,
            "restored": self.restored,
            "shed": self.shed,
            "seconds": round(self.seconds, 6),
            "max_workers": self.max_workers,
            "verdicts": self.verdict_counts(),
            "stalls": [s.as_dict() for s in self.stalls],
            "metrics": self.metrics.as_dict(),
            "outcomes": [
                None if o is None else o.as_dict() for o in self.outcomes
            ],
        }


class JobRunner:
    """Run one question suite under supervision; resumable via checkpoint.

    A runner is single-use per job run (``run``/``resume`` may be called
    again, each call is a fresh execution over the same pipeline/model).
    ``query_fn(index, question, certify, heartbeat)`` is the execution
    seam: the default calls :meth:`PolicyPipeline.query`, certifying every
    ``PipelineConfig.batch_certify_stride``-th question by input index;
    tests substitute hanging or counting functions.  ``journal_step`` is
    the crash-injection hook threaded into every checkpoint append (see
    :mod:`repro.store.faults`).
    """

    def __init__(
        self,
        pipeline: PolicyPipeline,
        model: PolicyModel,
        config: JobConfig | None = None,
        *,
        clock: Clock | None = None,
        query_fn=None,
        journal_step: StepHook | None = None,
    ) -> None:
        self.pipeline = pipeline
        self.model = model
        if config is None:
            config = getattr(pipeline.config, "jobs", None) or JobConfig()
        self.config = config
        self.clock: Clock = clock if clock is not None else MonotonicClock()
        self._query_fn = query_fn if query_fn is not None else self._default_query
        self._journal_step = journal_step
        self.job_metrics = PipelineMetrics(queries=0)
        # Per-run state (reset by _execute)
        self._lock = threading.RLock()
        self._heartbeats: list[WorkerHeartbeat] = []
        self._gate: AdmissionGate | None = None
        # Admitted, not yet started questions; None closes it.
        self._items: queue.SimpleQueue = queue.SimpleQueue()
        self._journal: CheckpointJournal | None = None
        self._watchdog: Watchdog | None = None
        self._outcomes: list[JobOutcome | None] = []
        self._stalls: list[StallReport] = []
        self._remaining = 0
        self._worker_seq = 0
        self._done = threading.Event()
        self._fatal: BaseException | None = None
        self._drain_flag = False
        self._drain_applied = False

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, questions) -> JobResult:
        """Execute the suite from scratch (writing a fresh journal header).

        Refuses a checkpoint directory whose journal already holds an
        intact header: recovery keeps the *first* header and the first
        occurrence of each index, so appending a second job's header and
        records would make a later ``resume`` silently restore the first
        job's verdicts.  Resume the existing job or pick a fresh
        directory instead.
        """
        questions = list(questions)
        if self.config.checkpoint_dir is not None:
            existing = read_journal(
                Path(self.config.checkpoint_dir) / JOURNAL_NAME
            )
            if existing.header is not None:
                raise JobError(
                    f"checkpoint directory {self.config.checkpoint_dir} "
                    "already holds a journal for "
                    f"{existing.header.get('company')!r} revision "
                    f"{existing.header.get('revision')} "
                    f"({len(existing.completed)} committed records); "
                    "resume it (`batch resume --checkpoint DIR`) or start "
                    "the new job in a fresh directory"
                )
        journal = self._open_journal()
        if journal is not None:
            journal.write_header(
                questions, company=self.model.company, revision=self.model.revision
            )
        return self._execute(questions, {}, journal, recovery=None)

    def resume(self, questions=None) -> JobResult:
        """Restore committed results from the checkpoint; run only the rest.

        ``questions`` is optional — the journal header is the source of
        truth; when given, it must match the header exactly (resuming a
        *different* suite against an old checkpoint would silently mix
        verdicts across jobs).  The header's model identity and question
        digest must likewise match this runner — restored verdicts were
        produced by the model the header names, and mixing them with
        fresh executions against a different model would corrupt the
        result the same way a mismatched suite would.
        """
        if self.config.checkpoint_dir is None:
            raise JobError("resume requires JobConfig.checkpoint_dir")
        recovery = read_journal(Path(self.config.checkpoint_dir) / JOURNAL_NAME)
        if recovery.header is None:
            if questions is None:
                raise JobError(
                    "checkpoint has no (intact) header; pass the question "
                    "suite to start the job from scratch"
                )
            return self.run(questions)
        header = recovery.header
        header_questions = [str(q) for q in header.get("questions", [])]
        if header.get("questions_sha256") != questions_digest(header_questions):
            raise JobError(
                "checkpoint header fails its question digest; refusing to "
                "resume from a tampered journal"
            )
        company = header.get("company")
        revision = header.get("revision")
        if company != self.model.company or revision != self.model.revision:
            raise JobError(
                f"checkpoint belongs to model {company!r} revision "
                f"{revision}, but this runner's model is "
                f"{self.model.company!r} revision {self.model.revision}; "
                "refusing to mix restored verdicts across models"
            )
        if questions is not None and list(questions) != header_questions:
            raise JobError(
                "question suite does not match the checkpoint header; "
                "refusing to resume a different job"
            )
        completed = {
            index: record
            for index, record in recovery.completed.items()
            if 0 <= index < len(header_questions)
        }
        journal = self._open_journal()
        return self._execute(header_questions, completed, journal, recovery)

    def request_drain(self) -> None:
        """Ask the job to stop admitting work and finish in-flight queries.

        Safe to call from any thread *and* from a signal handler: it
        flips a flag and stops the admission gate (its condition sits on
        an RLock, so interrupting the feeding thread mid-``enter`` cannot
        self-deadlock); the run loop applies the drain in normal context.
        """
        self._drain_flag = True
        gate = self._gate
        if gate is not None:
            gate.stop()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _open_journal(self) -> CheckpointJournal | None:
        if self.config.checkpoint_dir is None:
            return None
        return CheckpointJournal(self.config.checkpoint_dir, step=self._journal_step)

    def _execute(
        self,
        questions: list[str],
        completed: dict[int, dict],
        journal: CheckpointJournal | None,
        recovery: JournalRecovery | None,
    ) -> JobResult:
        n = len(questions)
        pending_indices = [i for i in range(n) if i not in completed]
        max_workers = self.config.max_workers
        if max_workers is None:
            max_workers = min(DEFAULT_BATCH_WORKERS, max(1, len(pending_indices)))

        with self._lock:
            self._outcomes = [None] * n
            for index, record in completed.items():
                self._outcomes[index] = restore_outcome(record)
            self._stalls = []
            self._remaining = len(pending_indices)
            self._journal = journal
            # Flags first: a drain requested from here on stops this gate.
            self._fatal = None
            self._drain_flag = False
            self._drain_applied = False
            self._gate = AdmissionGate(
                self.config.max_pending, shed_above=self.config.shed_above
            )
            self._items = queue.SimpleQueue()
            self._heartbeats = []
            self._worker_seq = 0
            self._done = threading.Event()
            # Per-run accounting: a runner reused for run() then resume()
            # reports each execution's counters, not their sum.
            self.job_metrics = PipelineMetrics(queries=0)
            self.job_metrics.checkpoint_restored += len(completed)
            if self._remaining == 0:
                self._done.set()

        self._watchdog = None
        if self.config.stall_after is not None:
            self._watchdog = Watchdog(
                stall_after=self.config.stall_after,
                clock=self.clock,
                interval=self.config.watchdog_interval,
            )

        gate = self._gate
        started = time.perf_counter()
        old_handlers = self._install_signal_handlers()
        try:
            with self._lock:
                for _ in range(min(max_workers, max(1, self._remaining))):
                    self._spawn_worker()
            if self._watchdog is not None and self.config.watchdog_thread:
                self._watchdog.start(self.scan_stalls)

            # Feed (main thread): backpressure-blocking; a drain or a
            # fatal worker exception stops the gate, which ends feeding.
            for index in pending_indices:
                if self._drain_flag or self._fatal is not None:
                    break
                refusal = gate.enter()
                if refusal is None:
                    self._items.put((index, questions[index]))
                elif refusal.reason == "draining":
                    break
                else:
                    # Load shedding: answer immediately instead of queueing.
                    outcome = ShedOutcome(
                        question=questions[index],
                        pending_at_admission=refusal.pending_at_admission,
                        shed_above=refusal.shed_above,
                    )
                    with self._lock:
                        self.job_metrics.shed_queries += 1
                        self._commit(index, questions[index], outcome, KIND_SHED)

            # Wait for completion, drain, or a fatal worker exception.
            while not self._done.is_set():
                if self._fatal is not None:
                    break
                if self._drain_flag and not self._drain_applied:
                    self._apply_drain()
                if self._drain_applied:
                    with self._lock:
                        if not any(hb.busy for hb in self._heartbeats):
                            break
                self._done.wait(0.02)
        finally:
            self._restore_signal_handlers(old_handlers)
            if self._watchdog is not None:
                self._watchdog.stop()
            # Registered workers exit promptly on the closed queue, and a
            # raising run leaves them nothing to start; abandoned
            # (cancelled) workers are daemons already removed from the
            # heartbeat table at replacement time.
            self._release_unstarted()
            if journal is not None:
                journal.close()

        with self._lock:
            if self._fatal is not None:
                raise self._fatal
            self.job_metrics.queue_high_water = max(
                self.job_metrics.queue_high_water, gate.high_water
            )
            outcomes = list(self._outcomes)
            stalls = list(self._stalls)

        metrics = merged(
            [o.metrics for o in outcomes if o is not None]
        )
        metrics.merge(self.job_metrics)
        return JobResult(
            questions=questions,
            outcomes=outcomes,
            metrics=metrics,
            seconds=time.perf_counter() - started,
            max_workers=max_workers,
            aborted=any(o is None for o in outcomes),
            restored=len(completed),
            stalls=stalls,
            shed=gate.shed,
            recovery=recovery,
            checkpoint_dir=(
                None
                if self.config.checkpoint_dir is None
                else str(self.config.checkpoint_dir)
            ),
        )

    def _default_query(self, index, question, certify, heartbeat):
        budget = self.config.query_budget(self.pipeline.config.solver_budget)
        return self.pipeline.query(
            self.model, question, budget=budget, certify=certify
        )

    def _spawn_worker(self) -> WorkerHeartbeat:
        # Caller holds self._lock.
        self._worker_seq += 1
        hb = WorkerHeartbeat(self._worker_seq)
        self._heartbeats.append(hb)
        thread = threading.Thread(
            target=self._worker,
            args=(hb,),
            name=f"job-worker-{self._worker_seq}",
            daemon=True,
        )
        thread.start()
        return hb

    def _worker(self, hb: WorkerHeartbeat) -> None:
        stride = max(1, self.pipeline.config.batch_certify_stride)
        while True:
            item = self._items.get()
            if item is None:
                self._items.put(None)  # leave the close for the others
                return
            index, question = item
            with self._lock:
                hb.begin(index, question, self.clock.now())
            try:
                certify = (
                    self.pipeline.config.certify and index % stride == 0
                )
                outcome = self._query_fn(index, question, certify, hb)
                kind = KIND_OUTCOME
            except Exception as exc:  # noqa: BLE001 - isolation boundary
                error_metrics = PipelineMetrics()
                error_metrics.query_errors = 1
                outcome = ErrorOutcome(
                    question=question,
                    stage=getattr(exc, "pipeline_stage", None) or "query",
                    error_type=type(exc).__name__,
                    message=str(exc),
                    metrics=error_metrics,
                )
                kind = KIND_ERROR
            except BaseException as exc:
                # KeyboardInterrupt / SystemExit / simulated kills: never a
                # per-query error — abort the job and let run() re-raise.
                self._abort_with(exc, hb)
                return
            try:
                with self._lock:
                    if hb.cancelled.is_set():
                        # Stalled and replaced while we were hung; the slot
                        # already holds a StallOutcome.  Discard and retire.
                        return
                    self._commit(index, question, outcome, kind)
                    hb.finish()
            except BaseException as exc:  # noqa: BLE001 - journal failure is fatal
                self._abort_with(exc, hb)
                return
            self._gate.exit()

    def _abort_with(self, exc: BaseException, hb: WorkerHeartbeat) -> None:
        with self._lock:
            if hb.cancelled.is_set() and self._fatal is None:
                # A cancelled worker's demise is not the job's problem.
                return
            if self._fatal is None:
                self._fatal = exc
            hb.finish()
            # A replaced worker's slot went back at replacement time.
            release = not hb.cancelled.is_set()
        self._done.set()
        # A feeder blocked in enter() is refused as soon as the gate stops.
        self._gate.stop()
        if release:
            self._gate.exit()

    def _commit(self, index, question, outcome, kind) -> None:
        # Caller holds self._lock; commit and journal append are atomic
        # with respect to stall replacement.
        if self._outcomes[index] is not None:
            return  # already answered (restored record raced a re-run)
        self._outcomes[index] = outcome
        self._remaining -= 1
        if self._journal is not None:
            self._journal.append_result(
                index, question, kind, outcome.verdict, outcome.as_dict()
            )
            self.job_metrics.checkpoint_records += 1
        if self._remaining <= 0:
            self._done.set()

    # ------------------------------------------------------------------
    # Stall handling
    # ------------------------------------------------------------------

    def scan_stalls(self, *, now: float | None = None) -> list[StallReport]:
        """One watchdog pass: convert stalled queries, replace workers.

        Called by the watchdog thread in production; tests drive it
        directly with a fake clock for deterministic detection.
        """
        if self._watchdog is None:
            return []
        reports: list[StallReport] = []
        with self._lock:
            scan_now = now if now is not None else self.clock.now()
            for hb in self._watchdog.scan(self._heartbeats, now=scan_now):
                index, question = hb.index, hb.question
                report = StallReport(
                    index=index,
                    question=question,
                    worker_id=hb.worker_id,
                    stage=hb.stage,
                    waited_seconds=scan_now - hb.last_beat,
                    stall_after=self._watchdog.stall_after,
                )
                hb.cancelled.set()
                self._heartbeats.remove(hb)
                outcome = StallOutcome(question=question, stall=report)
                self.job_metrics.stalled_queries += 1
                self._commit(index, question, outcome, KIND_STALL)
                self._stalls.append(report)
                if not self._drain_applied and self._fatal is None:
                    self._spawn_worker()
                    self.job_metrics.workers_replaced += 1
                reports.append(report)
        for _ in reports:
            self._gate.exit()
        return reports

    # ------------------------------------------------------------------
    # Drain + signals
    # ------------------------------------------------------------------

    def _apply_drain(self) -> None:
        with self._lock:
            if self._drain_applied:
                return
            self._drain_applied = True
            self.job_metrics.jobs_aborted += 1
        self._release_unstarted()
        with self._lock:
            if not any(hb.busy for hb in self._heartbeats):
                self._done.set()

    def _release_unstarted(self) -> None:
        """Close the queue: unstarted items give their slots back.

        Their outcomes stay None, so they remain pending in the
        checkpoint; the closing None retires each worker that reads it.
        """
        while True:
            try:
                item = self._items.get_nowait()
            except queue.Empty:
                break
            if item is not None:
                self._gate.exit()
        self._items.put(None)

    def _install_signal_handlers(self):
        if not self.config.handle_signals:
            return None
        if threading.current_thread() is not threading.main_thread():
            return None
        handlers = {}

        def on_signal(signum, frame):  # noqa: ARG001 - signal API
            self.request_drain()

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                handlers[signum] = signal.signal(signum, on_signal)
            except (ValueError, OSError):  # pragma: no cover - exotic hosts
                pass
        return handlers

    def _restore_signal_handlers(self, handlers) -> None:
        if not handlers:
            return
        for signum, handler in handlers.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass
