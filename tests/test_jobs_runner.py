"""Supervised job runner: admission, checkpointing, resume, isolation.

Fast suite (no markers): admission through the gate, journal recovery —
including the two corruptions an append-only log can suffer, a torn final
record and a replayed (duplicated) append — runner/`query_batch` trace
parity, resume-only-the-pending behaviour, BaseException propagation
(KeyboardInterrupt must abort, never become a per-query ErrorOutcome),
graceful drain, and per-query timeout composition.

The kill matrix (crash at every journal boundary) lives in
``test_jobs_crash.py``; stall detection in ``test_jobs_watchdog.py``.
Like its sibling job suites this one exercises real worker threads, so it
rides the chaos lane (``pytest -m chaos``) rather than the fast lane.
"""

from __future__ import annotations

import _thread
import json
import queue
import threading
import time

import pytest

from repro import JobConfig, JobError, JobRunner, Verdict
from repro.core.pipeline import ErrorOutcome
from repro.jobs import (
    CheckpointedOutcome,
    ShedOutcome,
    read_journal,
)
from repro.jobs.admission import AdmissionGate
from repro.jobs.checkpoint import (
    JOURNAL_NAME,
    KIND_OUTCOME,
    CheckpointJournal,
    journal_line,
)
from repro.jobs.faults import CountingQueryFn

pytestmark = pytest.mark.chaos

QUESTIONS = [
    "Acme collects the email address.",
    "Acme shares the usage information with analytics providers.",
    "Acme sells the contact information.",
    "Does Acme collect my name?",
]


def _trace(outcome) -> str:
    return json.dumps(outcome.as_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def baseline(pipeline, small_model):
    """Uninterrupted query_batch traces — the byte-identity reference."""
    batch = pipeline.query_batch(small_model, QUESTIONS, max_workers=1)
    return [_trace(o) for o in batch.outcomes]


# ---------------------------------------------------------------------------
# Admission queue: a gate slot per item, handed off on a SimpleQueue
# ---------------------------------------------------------------------------


def _admit(gate, items, item, **kwargs):
    """The runner's feeder step: take a slot, then queue the item."""
    refusal = gate.enter(**kwargs)
    if refusal is None:
        items.put(item)
    return refusal


def _admit_in_thread(gate, items, item):
    results = []
    thread = threading.Thread(
        target=lambda: results.append(_admit(gate, items, item)), daemon=True
    )
    thread.start()
    return thread, results


class TestAdmissionQueue:
    """What the runner's admission queue guaranteed, now composed from an
    :class:`AdmissionGate` and a ``queue.SimpleQueue``."""

    def test_admits_until_max_pending(self):
        gate, items = AdmissionGate(max_pending=2), queue.SimpleQueue()
        assert _admit(gate, items, "a") is None
        assert _admit(gate, items, "b") is None
        assert gate.depth == 2
        assert gate.high_water == 2
        assert items.qsize() == 2

    def test_backpressure_blocks_until_task_done(self):
        gate, items = AdmissionGate(max_pending=1), queue.SimpleQueue()
        assert _admit(gate, items, "a") is None
        thread, admitted = _admit_in_thread(gate, items, "b")
        time.sleep(0.05)
        assert not admitted  # still blocked at the bound
        assert items.get_nowait() == "a"
        gate.exit()
        thread.join(timeout=5.0)
        assert admitted == [None]
        assert items.get_nowait() == "b"

    def test_blocked_admit_aborts_on_should_stop(self):
        gate, items = AdmissionGate(max_pending=1), queue.SimpleQueue()
        assert _admit(gate, items, "a") is None
        thread, results = _admit_in_thread(gate, items, "b")
        gate.stop()
        thread.join(timeout=5.0)
        assert [r.reason for r in results] == ["draining"]
        assert items.get_nowait() == "a"
        assert items.empty(), "a refused item is never queued"

    def test_blocked_admit_wakes_on_task_done_without_polling(self):
        # No poll period at all: enter() sleeps purely on the condition
        # variable, so exit() must wake it directly.
        gate, items = AdmissionGate(max_pending=1), queue.SimpleQueue()
        assert _admit(gate, items, "a") is None
        thread, admitted = _admit_in_thread(gate, items, "b")
        time.sleep(0.05)
        assert not admitted
        assert items.get_nowait() == "a"
        started = time.monotonic()
        gate.exit()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert time.monotonic() - started < 1.0, "wakeup must not wait a poll tick"
        assert admitted == [None]

    def test_wake_makes_stop_flag_observed_immediately(self):
        gate, items = AdmissionGate(max_pending=1), queue.SimpleQueue()
        assert _admit(gate, items, "a") is None
        thread, results = _admit_in_thread(gate, items, "b")
        time.sleep(0.05)
        assert thread.is_alive(), "feeder should be parked on the cv"
        started = time.monotonic()
        gate.stop()
        thread.join(timeout=5.0)
        assert not thread.is_alive(), "stop() must rouse the blocked admit"
        assert time.monotonic() - started < 1.0
        assert [r.reason for r in results] == ["draining"]

    def test_shed_above_never_blocks(self):
        gate, items = AdmissionGate(max_pending=10, shed_above=1), queue.SimpleQueue()
        assert _admit(gate, items, "a") is None
        # Depth 1 >= shed threshold 1: refused immediately, no blocking.
        refusal = _admit(gate, items, "b")
        assert refusal.reason == "shed"
        assert refusal.pending_at_admission == 1
        items.get_nowait()
        gate.exit()
        assert _admit(gate, items, "b") is None

    def test_pending_counts_in_flight_not_just_queued(self):
        gate, items = AdmissionGate(max_pending=4), queue.SimpleQueue()
        _admit(gate, items, "a")
        assert items.get_nowait() == "a"
        assert gate.depth == 1  # popped but not completed
        gate.exit()
        assert gate.depth == 0

    def test_drain_removes_unstarted_items(self, pipeline, small_model):
        runner = JobRunner(pipeline, small_model, JobConfig(handle_signals=False))
        runner._gate = AdmissionGate(max_pending=8)
        for item in ("a", "b", "c"):
            _admit(runner._gate, runner._items, item)
        assert runner._items.get_nowait() == "a"  # in flight
        runner._apply_drain()
        assert runner._gate.depth == 1  # the in-flight item remains accounted
        assert runner._items.get_nowait() is None  # only the close is left
        assert runner._items.empty()


# ---------------------------------------------------------------------------
# Journal recovery (satellite: torn final record + duplicated record)
# ---------------------------------------------------------------------------


def _write_journal(tmp_path, records):
    directory = tmp_path / "ckpt"
    with CheckpointJournal(directory) as journal:
        journal.write_header(QUESTIONS, company="Acme", revision=1)
        for index, question in records:
            journal.append_result(
                index, question, KIND_OUTCOME, Verdict.VALID, {"question": question}
            )
    return directory / JOURNAL_NAME


class TestJournalRecovery:
    def test_round_trip(self, tmp_path):
        path = _write_journal(tmp_path, [(0, QUESTIONS[0]), (1, QUESTIONS[1])])
        recovery = read_journal(path)
        assert recovery.header is not None
        assert recovery.header["questions"] == QUESTIONS
        assert sorted(recovery.completed) == [0, 1]
        assert not recovery.torn_tail
        assert recovery.duplicates == 0

    def test_missing_file_is_empty_recovery(self, tmp_path):
        recovery = read_journal(tmp_path / "nope" / JOURNAL_NAME)
        assert recovery.header is None
        assert recovery.completed == {}

    def test_torn_final_record_recovers_to_prefix(self, tmp_path):
        path = _write_journal(tmp_path, [(0, QUESTIONS[0]), (1, QUESTIONS[1])])
        text = path.read_text("utf-8")
        # Cut the last record mid-line: the torn write a kill produces.
        torn = text[: text.rindex("\n", 0, len(text) - 1) + 1 + 10]
        path.write_text(torn, "utf-8")
        recovery = read_journal(path)
        assert recovery.torn_tail
        assert sorted(recovery.completed) == [0]
        assert recovery.header is not None

    def test_checksum_corruption_ends_trusted_prefix(self, tmp_path):
        path = _write_journal(
            tmp_path, [(0, QUESTIONS[0]), (1, QUESTIONS[1]), (2, QUESTIONS[2])]
        )
        lines = path.read_text("utf-8").splitlines()
        # Flip a byte inside record 1's payload: checksum fails, and
        # records *after* it are no longer vouched for.
        lines[2] = lines[2].replace(QUESTIONS[1], QUESTIONS[1].upper(), 1)
        path.write_text("\n".join(lines) + "\n", "utf-8")
        recovery = read_journal(path)
        assert recovery.torn_tail
        assert sorted(recovery.completed) == [0]

    def test_duplicated_record_first_occurrence_wins(self, tmp_path):
        path = _write_journal(tmp_path, [(0, QUESTIONS[0]), (1, QUESTIONS[1])])
        # Replay record 0's append with a *different* trace: recovery must
        # keep the first occurrence and only count the duplicate.
        replay = journal_line(
            {
                "kind": KIND_OUTCOME,
                "index": 0,
                "question": QUESTIONS[0],
                "verdict": Verdict.INVALID.value,
                "trace": {"question": "replayed"},
            }
        )
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(replay + "\n")
        recovery = read_journal(path)
        assert recovery.duplicates == 1
        assert sorted(recovery.completed) == [0, 1]
        assert recovery.completed[0]["verdict"] == Verdict.VALID.value
        assert "duplicate" in recovery.summary()

    def test_blank_lines_are_skipped(self, tmp_path):
        path = _write_journal(tmp_path, [(0, QUESTIONS[0])])
        path.write_text(path.read_text("utf-8") + "\n\n", "utf-8")
        recovery = read_journal(path)
        assert not recovery.torn_tail
        assert sorted(recovery.completed) == [0]


class TestJournalTailRepair:
    """Reopening a torn journal must repair the tear before appending.

    Without the repair, the first post-crash append coalesces onto the
    torn fragment: that line fails its checksum, and prefix recovery then
    silently distrusts every record the resumed run commits — the exact
    crash-resume-crash data loss the journal exists to prevent.
    """

    def test_reopen_truncates_torn_tail_before_appending(self, tmp_path):
        path = _write_journal(tmp_path, [(0, QUESTIONS[0])])
        raw = path.read_bytes()
        path.write_bytes(raw[:-20])  # kill tears record 0 mid-line
        with CheckpointJournal(tmp_path / "ckpt") as journal:
            assert journal.repaired_tail
            for index in (1, 2):
                journal.append_result(
                    index,
                    QUESTIONS[index],
                    KIND_OUTCOME,
                    Verdict.VALID,
                    {"question": QUESTIONS[index]},
                )
        recovery = read_journal(path)
        assert not recovery.torn_tail
        assert recovery.header is not None
        # The torn record is gone (pending again); the post-reopen
        # appends are fully trusted rather than lost past the tear.
        assert sorted(recovery.completed) == [1, 2]

    def test_reopen_of_intact_journal_repairs_nothing(self, tmp_path):
        path = _write_journal(tmp_path, [(0, QUESTIONS[0])])
        before = path.read_bytes()
        with CheckpointJournal(tmp_path / "ckpt") as journal:
            assert not journal.repaired_tail
        assert path.read_bytes() == before


# ---------------------------------------------------------------------------
# Runner end-to-end
# ---------------------------------------------------------------------------


class TestJobRunner:
    def test_traces_match_query_batch(self, pipeline, small_model, baseline):
        runner = JobRunner(pipeline, small_model, JobConfig(max_workers=1))
        result = runner.run(QUESTIONS)
        assert not result.aborted
        assert result.pending == []
        assert [_trace(o) for o in result.outcomes] == baseline

    def test_checkpointed_run_traces_identical(
        self, pipeline, small_model, tmp_path, baseline
    ):
        runner = JobRunner(
            pipeline,
            small_model,
            JobConfig(max_workers=1, checkpoint_dir=str(tmp_path / "ckpt")),
        )
        result = runner.run(QUESTIONS)
        assert [_trace(o) for o in result.outcomes] == baseline
        assert result.metrics.checkpoint_records == len(QUESTIONS)
        recovery = read_journal(tmp_path / "ckpt" / JOURNAL_NAME)
        assert sorted(recovery.completed) == list(range(len(QUESTIONS)))

    def test_resume_restores_all_executes_none(
        self, pipeline, small_model, tmp_path, baseline
    ):
        config = JobConfig(max_workers=1, checkpoint_dir=str(tmp_path / "ckpt"))
        JobRunner(pipeline, small_model, config).run(QUESTIONS)
        counting = CountingQueryFn(pipeline, small_model)
        result = JobRunner(
            pipeline, small_model, config, query_fn=counting
        ).resume()
        assert counting.by_index == {}  # nothing re-executed
        assert result.restored == len(QUESTIONS)
        assert all(isinstance(o, CheckpointedOutcome) for o in result.outcomes)
        assert [_trace(o) for o in result.outcomes] == baseline

    def test_resume_executes_only_pending(
        self, pipeline, small_model, tmp_path, baseline
    ):
        config = JobConfig(max_workers=1, checkpoint_dir=str(tmp_path / "ckpt"))
        JobRunner(pipeline, small_model, config).run(QUESTIONS)
        path = tmp_path / "ckpt" / JOURNAL_NAME
        # Drop the last two records: queries 2 and 3 become pending again.
        lines = path.read_text("utf-8").splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n", "utf-8")

        counting = CountingQueryFn(pipeline, small_model)
        result = JobRunner(
            pipeline, small_model, config, query_fn=counting
        ).resume()
        assert counting.by_index == {2: 1, 3: 1}
        assert result.restored == 2
        assert result.metrics.checkpoint_restored == 2
        assert [_trace(o) for o in result.outcomes] == baseline

    def test_resume_rejects_mismatched_suite(self, pipeline, small_model, tmp_path):
        config = JobConfig(max_workers=1, checkpoint_dir=str(tmp_path / "ckpt"))
        JobRunner(pipeline, small_model, config).run(QUESTIONS)
        with pytest.raises(JobError, match="does not match"):
            JobRunner(pipeline, small_model, config).resume(QUESTIONS[:2])

    def test_run_refuses_initialized_checkpoint_dir(
        self, pipeline, small_model, tmp_path
    ):
        # Recovery keeps the first header and first-occurrence records,
        # so running job B into job A's directory would make a later
        # resume restore A's verdicts under B's name.
        config = JobConfig(max_workers=1, checkpoint_dir=str(tmp_path / "ckpt"))
        JobRunner(pipeline, small_model, config).run(QUESTIONS)
        with pytest.raises(JobError, match="resume"):
            JobRunner(pipeline, small_model, config).run(QUESTIONS[:2])

    def test_resume_rejects_model_mismatch(
        self, pipeline, small_model, small_policy_text, tmp_path
    ):
        config = JobConfig(max_workers=1, checkpoint_dir=str(tmp_path / "ckpt"))
        JobRunner(pipeline, small_model, config).run(QUESTIONS)

        other_company = pipeline.process(small_policy_text, company="OtherCorp")
        with pytest.raises(JobError, match="refusing to mix"):
            JobRunner(pipeline, other_company, config).resume()

        other_revision = pipeline.process(small_policy_text)
        other_revision.revision = small_model.revision + 1
        with pytest.raises(JobError, match="refusing to mix"):
            JobRunner(pipeline, other_revision, config).resume()

    def test_resume_rejects_header_digest_mismatch(
        self, pipeline, small_model, tmp_path
    ):
        config = JobConfig(max_workers=1, checkpoint_dir=str(tmp_path / "ckpt"))
        JobRunner(pipeline, small_model, config).run(QUESTIONS)
        path = tmp_path / "ckpt" / JOURNAL_NAME
        lines = path.read_text("utf-8").splitlines()
        header = json.loads(lines[0])["record"]
        header["questions"] = list(QUESTIONS[:2])  # suite swapped, digest stale
        lines[0] = journal_line(header)
        path.write_text("\n".join(lines) + "\n", "utf-8")
        with pytest.raises(JobError, match="digest"):
            JobRunner(pipeline, small_model, config).resume()

    def test_resume_without_checkpoint_dir_rejected(self, pipeline, small_model):
        with pytest.raises(JobError, match="checkpoint_dir"):
            JobRunner(pipeline, small_model, JobConfig()).resume()

    def test_resume_empty_checkpoint_needs_questions(
        self, pipeline, small_model, tmp_path
    ):
        config = JobConfig(max_workers=1, checkpoint_dir=str(tmp_path / "ckpt"))
        with pytest.raises(JobError, match="header"):
            JobRunner(pipeline, small_model, config).resume()
        # With the suite supplied, an empty checkpoint starts from scratch.
        result = JobRunner(pipeline, small_model, config).resume(QUESTIONS)
        assert result.pending == []
        assert result.restored == 0

    def test_pipeline_run_and_resume_wrappers(
        self, pipeline, small_model, tmp_path, baseline
    ):
        config = JobConfig(max_workers=1, checkpoint_dir=str(tmp_path / "ckpt"))
        result = pipeline.run_job(small_model, QUESTIONS, job_config=config)
        assert [_trace(o) for o in result.outcomes] == baseline
        resumed = pipeline.resume_job(small_model, job_config=config)
        assert resumed.restored == len(QUESTIONS)
        assert [_trace(o) for o in resumed.outcomes] == baseline

    def test_pipeline_config_jobs_is_the_default(
        self, small_policy_text, tmp_path
    ):
        from repro import PipelineConfig, PolicyPipeline

        config = PipelineConfig(
            jobs=JobConfig(max_workers=1, checkpoint_dir=str(tmp_path / "ckpt"))
        )
        scoped = PolicyPipeline(config=config)
        model = scoped.process(small_policy_text)
        result = scoped.run_job(model, QUESTIONS[:2])  # config from pipeline
        assert result.metrics.checkpoint_records == 2
        assert (tmp_path / "ckpt" / JOURNAL_NAME).exists()

    def test_error_isolation_matches_query_batch(self, pipeline, small_model):
        def flaky(index, question, certify, heartbeat):
            if index == 1:
                raise RuntimeError("injected backend failure")
            return pipeline.query(small_model, question, certify=certify)

        runner = JobRunner(
            pipeline, small_model, JobConfig(max_workers=1), query_fn=flaky
        )
        result = runner.run(QUESTIONS)
        assert isinstance(result.outcomes[1], ErrorOutcome)
        assert result.outcomes[1].error_type == "RuntimeError"
        assert result.metrics.query_errors == 1
        assert not result.aborted  # fault isolated, job completed


class TestLoadShedding:
    def test_overflow_queries_shed_to_unknown(self, pipeline, small_model):
        config = JobConfig(max_workers=1, max_pending=4, shed_above=1)
        runner = JobRunner(pipeline, small_model, config)

        def first_waits_for_sheds(index, question, certify, heartbeat):
            # Hold query 0 in flight until every other query has been
            # shed, so the shed set is deterministic, not schedule-luck.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                with runner._lock:
                    if runner._remaining <= 1:
                        break
                time.sleep(0.002)
            return pipeline.query(small_model, question, certify=certify)

        runner._query_fn = first_waits_for_sheds
        result = runner.run(QUESTIONS)
        assert result.shed == len(QUESTIONS) - 1
        assert result.metrics.shed_queries == len(QUESTIONS) - 1
        for outcome in result.outcomes[1:]:
            assert isinstance(outcome, ShedOutcome)
            assert outcome.verdict is Verdict.UNKNOWN
            assert outcome.shed_above == 1
        assert not isinstance(result.outcomes[0], ShedOutcome)

    def test_high_water_tracked(self, pipeline, small_model):
        config = JobConfig(max_workers=2, max_pending=2)
        result = JobRunner(pipeline, small_model, config).run(QUESTIONS)
        assert 1 <= result.metrics.queue_high_water <= 2


# ---------------------------------------------------------------------------
# Admission through the gate, with the feeder blocked at the bound
# ---------------------------------------------------------------------------


def _wait_until(predicate, timeout=5.0) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.002)
    return True


def _run_in_thread(runner, questions, timeout=10.0, raised=None):
    """``(result or raised exception, finished)``; a wedged run cannot
    hang the suite.  ``raised``, an Event, is set the moment run() raises."""
    box = {}

    def target():
        try:
            box["value"] = runner.run(questions)
        except BaseException as exc:  # noqa: BLE001 - handed to the test
            if raised is not None:
                raised.set()
            box["value"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    return box.get("value"), not thread.is_alive()


class TestGateAdmission:
    """One worker and one slot: while query 0 runs it holds the gate's
    only slot, so the feeder waits in ``AdmissionGate.enter`` for query 1."""

    CONFIG = dict(max_workers=1, max_pending=1, handle_signals=False)

    def test_request_drain_stops_a_blocked_feeder(self, pipeline, small_model):
        runner = JobRunner(pipeline, small_model, JobConfig(**self.CONFIG))
        depths, drained_at = [], []

        def drain_while_feeder_waits(index, question, certify, heartbeat):
            depths.append(runner._gate.depth)  # running, not queued, still counts
            time.sleep(0.05)
            drained_at.append(time.monotonic())
            runner.request_drain()
            # Finish only once the run loop applied the drain, which it
            # cannot do while the feeder still waits for a slot.
            _wait_until(lambda: runner._drain_applied, timeout=10.0)
            return pipeline.query(small_model, question, certify=certify)

        runner._query_fn = drain_while_feeder_waits
        result, finished = _run_in_thread(runner, QUESTIONS)
        assert finished, "request_drain must release the feeder blocked in enter()"
        assert time.monotonic() - drained_at[0] < 5.0
        assert depths == [1]
        assert result.aborted
        assert result.outcomes[0] is not None
        assert result.pending == [1, 2, 3]
        assert _wait_until(lambda: runner._gate.depth == 0)

    def test_worker_keyboard_interrupt_reraises_promptly(
        self, pipeline, small_model
    ):
        raised_at = []

        def interrupt_while_feeder_waits(index, question, certify, heartbeat):
            time.sleep(0.05)
            raised_at.append(time.monotonic())
            raise KeyboardInterrupt

        runner = JobRunner(
            pipeline,
            small_model,
            JobConfig(**self.CONFIG),
            query_fn=interrupt_while_feeder_waits,
        )
        raised, finished = _run_in_thread(runner, QUESTIONS)
        # The aborting worker stops the gate before it gives its slot
        # back, so the stop, not a free slot, releases the feeder.
        assert finished, "a worker's KeyboardInterrupt must not wedge the feeder"
        assert isinstance(raised, KeyboardInterrupt)
        assert time.monotonic() - raised_at[0] < 5.0

    def test_shed_records_gate_depth_at_refusal(self, pipeline, small_model):
        runner = JobRunner(
            pipeline, small_model, JobConfig(shed_above=1, **self.CONFIG)
        )

        def first_waits_for_sheds(index, question, certify, heartbeat):
            _wait_until(lambda: runner._remaining <= 1, timeout=10.0)
            return pipeline.query(small_model, question, certify=certify)

        runner._query_fn = first_waits_for_sheds
        result = runner.run(QUESTIONS)
        assert result.shed == len(QUESTIONS) - 1
        for outcome in result.outcomes[1:]:
            assert isinstance(outcome, ShedOutcome)
            assert outcome.pending_at_admission == 1
            assert outcome.shed_above == 1
        assert result.metrics.queue_high_water == 1

    def test_closing_the_queue_retires_every_worker(self, pipeline, small_model):
        # The None that closes the queue is put back by each worker that
        # reads it, so one close retires them all, idle ones included.
        before = set(threading.enumerate())
        JobRunner(
            pipeline, small_model, JobConfig(max_workers=3, handle_signals=False)
        ).run(QUESTIONS[:2])
        workers = [
            t
            for t in threading.enumerate()
            if t not in before and t.name.startswith("job-worker-")
        ]
        for thread in workers:
            thread.join(timeout=5.0)
        assert not any(thread.is_alive() for thread in workers)


# ---------------------------------------------------------------------------
# BaseException propagation (satellite: interruption is never an outcome)
# ---------------------------------------------------------------------------


class TestInterruptPropagation:
    SUITE = QUESTIONS * 5  # 20 questions for 2 workers: most stay queued

    def test_worker_interrupt_starts_nothing_after_run_raises(
        self, pipeline, small_model
    ):
        raised = threading.Event()
        lock = threading.Lock()
        starts, late = [], []

        def interrupted(index, question, certify, heartbeat):
            with lock:
                if raised.is_set():
                    late.append(index)
                starts.append(index)
            if index == 0:
                # Both workers hold a question when the interrupt lands.
                _wait_until(lambda: len(starts) >= 2)
                raise KeyboardInterrupt
            raised.wait(5.0)
            return pipeline.query(small_model, question, certify=certify)

        runner = JobRunner(
            pipeline,
            small_model,
            JobConfig(max_workers=2, handle_signals=False),
            query_fn=interrupted,
        )
        exc, finished = _run_in_thread(runner, self.SUITE, raised=raised)
        assert finished
        assert isinstance(exc, KeyboardInterrupt)
        # The in-flight question finishes; the queued ones never start,
        # and every slot, the aborting worker's included, comes back.
        settled = _wait_until(lambda: runner._gate.depth == 0)
        assert late == []
        assert settled

    def test_caller_interrupt_starts_nothing_after_query_batch_raises(
        self, pipeline, small_model, monkeypatch
    ):
        # interrupt_main() raises KeyboardInterrupt in the main thread
        # only, so query_batch runs there; every wait below is bounded.
        gates = []

        class RecordingGate(AdmissionGate):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                gates.append(self)

        monkeypatch.setattr("repro.jobs.runner.AdmissionGate", RecordingGate)
        raised = threading.Event()
        lock = threading.Lock()
        starts, late = [], []
        real_query = pipeline.query

        def interrupting(model, question, **kwargs):
            with lock:
                if raised.is_set():
                    late.append(question)
                starts.append(question)
                first = len(starts) == 1
            if first:
                _wait_until(lambda: len(starts) >= 2)
                _thread.interrupt_main()
            raised.wait(5.0)
            return real_query(model, question, **kwargs)

        monkeypatch.setattr(pipeline, "query", interrupting)
        with pytest.raises(KeyboardInterrupt):
            try:
                pipeline.query_batch(small_model, self.SUITE, max_workers=2)
            finally:
                raised.set()
        (gate,) = gates
        settled = _wait_until(lambda: gate.depth == 0)
        assert late == []
        assert settled

    def test_query_batch_propagates_keyboard_interrupt(
        self, pipeline, small_model, monkeypatch
    ):
        real_query = pipeline.query

        def interrupted(model, question, **kwargs):
            if question == QUESTIONS[1]:
                raise KeyboardInterrupt
            return real_query(model, question, **kwargs)

        monkeypatch.setattr(pipeline, "query", interrupted)
        with pytest.raises(KeyboardInterrupt):
            pipeline.query_batch(small_model, QUESTIONS, max_workers=1)

    def test_query_batch_propagates_system_exit(
        self, pipeline, small_model, monkeypatch
    ):
        def exiting(model, question, **kwargs):
            raise SystemExit(2)

        monkeypatch.setattr(pipeline, "query", exiting)
        with pytest.raises(SystemExit):
            pipeline.query_batch(small_model, QUESTIONS, max_workers=2)

    def test_runner_aborts_on_keyboard_interrupt(
        self, pipeline, small_model, tmp_path, baseline
    ):
        config = JobConfig(
            max_workers=1,
            checkpoint_dir=str(tmp_path / "ckpt"),
            handle_signals=False,
        )

        def interrupted(index, question, certify, heartbeat):
            if index == 2:
                raise KeyboardInterrupt
            return pipeline.query(small_model, question, certify=certify)

        runner = JobRunner(pipeline, small_model, config, query_fn=interrupted)
        with pytest.raises(KeyboardInterrupt):
            runner.run(QUESTIONS)

        # Committed work survived the interrupt; resume finishes the rest
        # byte-identically.
        recovery = read_journal(tmp_path / "ckpt" / JOURNAL_NAME)
        assert sorted(recovery.completed) == [0, 1]
        result = JobRunner(pipeline, small_model, config).resume()
        assert [_trace(o) for o in result.outcomes] == baseline


# ---------------------------------------------------------------------------
# Graceful drain
# ---------------------------------------------------------------------------


class TestGracefulDrain:
    def test_drain_checkpoints_partial_and_resumes(
        self, pipeline, small_model, tmp_path, baseline
    ):
        config = JobConfig(
            max_workers=1,
            checkpoint_dir=str(tmp_path / "ckpt"),
            handle_signals=False,
        )
        runner = JobRunner(pipeline, small_model, config)

        def drain_after_first(index, question, certify, heartbeat):
            if index == 0:
                runner.request_drain()  # the signal handler's code path
            else:
                # Any later query the worker already picked up holds until
                # the drain lands, so the still-queued tail is determin-
                # istically dropped (in-flight queries finish; queued ones
                # stay pending for resume).
                deadline = time.monotonic() + 10.0
                while not runner._drain_applied and time.monotonic() < deadline:
                    time.sleep(0.002)
            return pipeline.query(small_model, question, certify=certify)

        runner._query_fn = drain_after_first
        result = runner.run(QUESTIONS)
        assert result.aborted
        assert result.outcomes[0] is not None
        assert result.pending  # something was left for resume
        assert set(result.pending) >= {2, 3}  # the never-started tail
        assert result.metrics.jobs_aborted == 1
        assert "ABORTED" in result.summary()
        # Dropped, never-started items gave their admission slots back.
        assert _wait_until(lambda: runner._gate.depth == 0)

        resumed = JobRunner(pipeline, small_model, config).resume()
        assert not resumed.aborted
        assert resumed.pending == []
        assert [_trace(o) for o in resumed.outcomes] == baseline

    def test_completed_run_is_not_aborted(self, pipeline, small_model):
        result = JobRunner(
            pipeline, small_model, JobConfig(max_workers=2)
        ).run(QUESTIONS)
        assert not result.aborted
        assert result.metrics.jobs_aborted == 0


# ---------------------------------------------------------------------------
# Per-query timeout composition (satellite: --timeout)
# ---------------------------------------------------------------------------


class TestQueryTimeout:
    def _captured_budget(self, pipeline, small_model, monkeypatch, timeout):
        captured = {}
        real_query = pipeline.query

        def capture(model, question, budget=None, **kwargs):
            captured["budget"] = budget
            return real_query(model, question, budget=budget, **kwargs)

        monkeypatch.setattr(pipeline, "query", capture)
        runner = JobRunner(
            pipeline,
            small_model,
            JobConfig(max_workers=1, query_timeout=timeout),
        )
        runner.run(QUESTIONS[:1])
        return captured["budget"]

    def test_tightens_solver_deadline(self, pipeline, small_model, monkeypatch):
        base = pipeline.config.solver_budget
        budget = self._captured_budget(pipeline, small_model, monkeypatch, 1.5)
        assert budget.timeout_seconds == 1.5
        assert budget.max_conflicts == base.max_conflicts  # only time changes

    def test_never_loosens_solver_deadline(
        self, pipeline, small_model, monkeypatch
    ):
        base = pipeline.config.solver_budget
        budget = self._captured_budget(
            pipeline, small_model, monkeypatch, base.timeout_seconds + 100.0
        )
        assert budget.timeout_seconds == base.timeout_seconds

    def test_default_leaves_budget_untouched(
        self, pipeline, small_model, monkeypatch
    ):
        budget = self._captured_budget(pipeline, small_model, monkeypatch, None)
        assert budget is None  # pipeline default budget applies


class TestJobConfigValidation:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            JobConfig(max_pending=0)
        with pytest.raises(ValueError):
            JobConfig(shed_above=0)
        with pytest.raises(ValueError, match="shed_above"):
            JobConfig(max_pending=4, shed_above=5)
        with pytest.raises(ValueError):
            JobConfig(stall_after=0.0)
        with pytest.raises(ValueError):
            JobConfig(query_timeout=-1.0)
        with pytest.raises(ValueError):
            JobConfig(max_workers=0)

    def test_pipeline_config_carries_job_config(self, pipeline, small_model):
        from repro import PipelineConfig

        config = PipelineConfig(jobs=JobConfig(max_workers=1))
        assert config.jobs.max_workers == 1
