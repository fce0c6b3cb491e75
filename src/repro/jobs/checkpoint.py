"""Append-only, crash-resumable checkpoint journal for batch jobs.

One journal file (``journal.jsonl``) per job: a header record naming the
question list and model identity, then one record per completed query in
completion order.  The file is an append-only log in the shared format of
:mod:`repro.store.log` (self-checking envelopes, fsync'd appends, torn
tails cut on reopen), so a kill can lose at most the record being
appended.  :data:`JOURNAL` is the journal's trust rule on top of it:

* trust is a **prefix** — the first line that fails to decode (or carries
  no index) ends it, and the resumed job re-executes everything past that
  point rather than trusting a damaged record;
* a **duplicated record** — an append replayed after an ill-timed crash —
  is dropped; the first occurrence of an index wins;
* a journal needs its **header**; without one nothing binds the records
  to a question suite or model.

Restored results come back as :class:`CheckpointedOutcome`: a verdict plus
the exact trace dict the original outcome serialized, so a resumed job's
final outcome list is byte-identical (``as_dict`` for ``as_dict``) to an
uninterrupted run's.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.metrics import PipelineMetrics
from repro.core.verify import Verdict
from repro.store.atomic import StepHook, append_durable_line
from repro.store.log import LogSchema, envelope, open_for_append, read_log

JOURNAL_NAME = "journal.jsonl"
JOURNAL_VERSION = 1

#: Record kinds a journal line may carry.
KIND_HEADER = "header"
KIND_OUTCOME = "outcome"  # QueryOutcome trace
KIND_ERROR = "error"  # ErrorOutcome trace (fault-isolated failure)
KIND_STALL = "stall"  # StallOutcome trace (watchdog replacement)
KIND_SHED = "shed"  # ShedOutcome trace (refused by admission control)


def questions_digest(questions: list[str]) -> str:
    """The digest binding a journal header to its question suite."""
    return hashlib.sha256("\n".join(questions).encode("utf-8")).hexdigest()


def _journal_key(record: dict):
    if record.get("kind") == KIND_HEADER:
        return KIND_HEADER
    index = record.get("index")
    if not isinstance(index, int):
        raise ValueError("record carries no integer index")
    return index


#: The journal's trust rule: a header-bound prefix, first index wins.
JOURNAL = LogSchema(key=_journal_key, prefix=True, required=KIND_HEADER)


def journal_line(record: dict) -> str:
    """Envelope one record as a self-checking journal line."""
    return envelope(record)


@dataclass(slots=True)
class JournalRecovery:
    """What :func:`read_journal` found (and refused to trust)."""

    header: dict | None = None
    completed: dict[int, dict] = field(default_factory=dict)
    torn_tail: bool = False  # a line failed to decode and ended the prefix
    duplicates: int = 0  # replayed appends dropped (first occurrence wins)

    def summary(self) -> str:
        parts = [f"{len(self.completed)} completed records"]
        if self.torn_tail:
            parts.append("torn tail dropped")
        if self.duplicates:
            parts.append(f"{self.duplicates} duplicate records ignored")
        return "journal recovery: " + ", ".join(parts)


def read_journal(path: str | Path) -> JournalRecovery:
    """Recover the trusted prefix of a checkpoint journal (see :data:`JOURNAL`)."""
    log = read_log(path, JOURNAL)
    completed = log.trusted
    return JournalRecovery(
        header=completed.pop(KIND_HEADER, None),
        completed=completed,
        torn_tail=log.end is not None,
        duplicates=log.duplicates,
    )


@dataclass(slots=True)
class CheckpointedOutcome:
    """A finished result restored from the journal instead of re-executed.

    Holds the exact trace dict the original outcome serialized, so
    ``as_dict()`` — and therefore any serialized comparison of a resumed
    run against an uninterrupted one — is byte-identical.  Restored
    outcomes carry empty metrics (the work was paid for before the crash;
    ``JobResult.restored`` counts them).
    """

    question: str
    kind: str  # KIND_OUTCOME / KIND_ERROR / KIND_STALL
    verdict: Verdict
    trace: dict
    metrics: PipelineMetrics = field(
        default_factory=lambda: PipelineMetrics(queries=0)
    )

    @property
    def failed(self) -> bool:
        return self.kind == KIND_ERROR

    @property
    def restored(self) -> bool:
        return True

    def summary(self) -> str:
        return (
            f"query: {self.question}\n"
            f"verdict: {self.verdict} (restored from checkpoint)"
        )

    def as_dict(self, *, include_metrics: bool = False) -> dict[str, object]:
        return self.trace


class CheckpointJournal:
    """Writer half of the journal: fsync'd appends, one open handle.

    Opening an existing journal cuts a torn tail first (see
    :func:`~repro.store.log.open_for_append`); :attr:`repaired_tail`
    records whether a tear was found.  Not thread-safe by itself — the
    :class:`~repro.jobs.runner.JobRunner` serializes appends under its
    commit lock, which also pins the record order for a single-worker run.
    """

    def __init__(self, directory: str | Path, *, step: StepHook | None = None) -> None:
        self.directory = Path(directory)
        self.path = self.directory / JOURNAL_NAME
        self._step = step
        self.records_written = 0
        self._handle, self.repaired_tail = open_for_append(self.path)

    def write_header(
        self,
        questions: list[str],
        *,
        company: str,
        revision: int,
    ) -> None:
        digest = questions_digest(list(questions))
        self._append(
            {
                "kind": KIND_HEADER,
                "version": JOURNAL_VERSION,
                "company": company,
                "revision": revision,
                "questions": list(questions),
                "questions_sha256": digest,
            },
            label="header",
        )

    def append_result(
        self, index: int, question: str, kind: str, verdict: Verdict, trace: dict
    ) -> None:
        self._append(
            {
                "kind": kind,
                "index": index,
                "question": question,
                "verdict": verdict.value,
                "trace": trace,
            },
            label=f"record:{index}",
        )

    def _append(self, record: dict, *, label: str) -> None:
        append_durable_line(
            self._handle, journal_line(record), step=self._step, label=label
        )
        self.records_written += 1

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def restore_outcome(record: dict) -> CheckpointedOutcome:
    """A :class:`CheckpointedOutcome` for one recovered journal record."""
    return CheckpointedOutcome(
        question=str(record.get("question", "")),
        kind=str(record.get("kind", KIND_OUTCOME)),
        verdict=Verdict(record.get("verdict", Verdict.UNKNOWN.value)),
        trace=dict(record.get("trace", {})),
    )
