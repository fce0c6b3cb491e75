"""Record/replay cassettes: real-provider runs become offline fixtures.

A cassette is an append-only JSONL file of prompt→completion pairs keyed
by prompt digest (:func:`~repro.llm.client.prompt_fingerprint`).  The
file is an append-only log in the shared format of :mod:`repro.store.log`
— the same self-checking envelopes, fsync'd appends and torn-tail repair
as the checkpoint journal — so a kill mid-recording loses at most the
pair being appended and never corrupts earlier ones.

:class:`RecordingLLM` wraps a live backend and captures every completion
it produces; :class:`ReplayLLM` serves a cassette back deterministically
with no backend at all.  The composition is content-addressed, not
call-ordered: any worker count, any arrival order, any retry schedule
replays to the same completions, which is what makes a recorded
real-policy run a stable tier-1 fixture.

:data:`CASSETTE` is the cassette's trust rule: a damaged line — torn
tail, checksum failure, garbage bytes, or a digest that does not match
its own prompt — is skipped and reported in a structured
:class:`CassetteReport`; a damaged cassette degrades to a smaller one,
it never crashes replay.  Duplicate digests are first-wins (two workers
may race to record the same prompt; both wrote the same completion).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import CassetteError, CassetteMissError
from repro.llm.client import LLMClient, UsageStats, prompt_fingerprint
from repro.store.atomic import StepHook, append_durable_line
from repro.store.log import LogSchema, envelope, open_for_append, read_log

CASSETTE_VERSION = 1

#: Reason a record whose digest names a different prompt is refused.
DIGEST_MISMATCH = "digest does not match prompt"


def cassette_line(prompt: str, completion: str) -> str:
    """Envelope one prompt→completion pair as a self-checking JSONL line."""
    return envelope(
        {
            "v": CASSETTE_VERSION,
            "digest": prompt_fingerprint(prompt),
            "prompt": prompt,
            "completion": completion,
        }
    )


def _cassette_key(record: dict) -> str:
    digest = record.get("digest")
    prompt = record.get("prompt")
    completion = record.get("completion")
    if not all(isinstance(value, str) for value in (digest, prompt, completion)):
        raise ValueError("record missing digest/prompt/completion")
    if prompt_fingerprint(prompt) != digest:
        raise ValueError(DIGEST_MISMATCH)
    return digest


#: The cassette's trust rule: skip damaged lines, first digest wins.
CASSETTE = LogSchema(key=_cassette_key, prefix=False)


@dataclass(slots=True)
class SkippedLine:
    """One cassette line that could not be trusted, and why."""

    line_number: int  # 1-based
    reason: str

    def as_dict(self) -> dict[str, object]:
        return {"line_number": self.line_number, "reason": self.reason}


@dataclass(slots=True)
class CassetteReport:
    """Structured account of a cassette load."""

    path: str
    entries: int = 0  # distinct digests loaded
    duplicates: int = 0  # repeated digests (first occurrence wins)
    skipped: list[SkippedLine] = field(default_factory=list)

    def as_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "entries": self.entries,
            "duplicates": self.duplicates,
            "skipped": [line.as_dict() for line in self.skipped],
        }


def load_cassette(path: str | Path) -> tuple[dict[str, str], CassetteReport]:
    """Load a cassette into a digest→completion map, skipping damage.

    A missing file is an empty cassette (strict replay then reports every
    lookup as a miss — loudly — rather than the load crashing first).
    """
    path = Path(path)
    try:
        log = read_log(path, CASSETTE)
    except OSError as exc:
        raise CassetteError(f"cassette {path} is unreadable: {exc}") from exc
    table = {
        digest: record["completion"] for digest, record in log.trusted.items()
    }
    report = CassetteReport(
        path=str(path),
        entries=len(table),
        duplicates=log.duplicates,
        skipped=[SkippedLine(line.number, line.reason) for line in log.refused],
    )
    return table, report


class RecordingLLM:
    """Capture every completion the inner backend produces into a cassette.

    Thread-safe and dedup-on-write: concurrent workers completing the
    same prompt record it once (first caller wins the append).  The file
    handle stays open for the wrapper's lifetime so every append is one
    write + flush + fsync, and :meth:`close` (or use as a context
    manager) releases it.  Appending to an existing cassette extends it:
    already-recorded digests are loaded first and never re-appended.
    """

    def __init__(
        self,
        inner: LLMClient,
        path: str | Path,
        *,
        stats: UsageStats | None = None,
        step: StepHook | None = None,
    ) -> None:
        self._inner = inner
        self._path = Path(path)
        self._step = step
        self.stats = stats if stats is not None else UsageStats()
        self._lock = threading.Lock()
        # Cut a torn tail before loading: the next append would otherwise
        # join onto it, and the line it lands in would become unreadable.
        try:
            self._handle, _ = open_for_append(self._path)
        except OSError as exc:
            raise CassetteError(f"cassette {path} is unreadable: {exc}") from exc
        try:
            self._recorded, self.report = load_cassette(self._path)
        except BaseException:
            self._handle.close()
            raise

    @property
    def path(self) -> Path:
        return self._path

    def complete(self, prompt: str) -> str:
        completion = self._inner.complete(prompt)
        digest = prompt_fingerprint(prompt)
        with self._lock:
            if self._handle is None:
                raise CassetteError(f"cassette {self._path} is closed for recording")
            if digest not in self._recorded:
                append_durable_line(
                    self._handle,
                    cassette_line(prompt, completion),
                    step=self._step,
                    label=digest[:12],
                )
                self._recorded[digest] = completion
                self.stats.cassette_records += 1
        return completion

    def __len__(self) -> int:
        with self._lock:
            return len(self._recorded)

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "RecordingLLM":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ReplayLLM:
    """Serve a recorded cassette deterministically; no backend required.

    In strict mode (the default) an unknown prompt raises a typed
    :class:`~repro.errors.CassetteMissError` carrying the prompt digest,
    so an incomplete fixture fails loudly with exactly the inputs a
    re-recording run must cover.  With ``fallback`` set, misses delegate
    to that client instead (useful for incrementally extending a cassette
    behind a :class:`RecordingLLM`).
    """

    def __init__(
        self,
        path: str | Path,
        *,
        strict: bool = True,
        fallback: LLMClient | None = None,
        stats: UsageStats | None = None,
    ) -> None:
        self._path = Path(path)
        self.strict = strict
        self._fallback = fallback
        self.stats = stats if stats is not None else UsageStats()
        self._lock = threading.Lock()
        self._table, self.report = load_cassette(self._path)

    @property
    def path(self) -> Path:
        return self._path

    def complete(self, prompt: str) -> str:
        digest = prompt_fingerprint(prompt)
        with self._lock:
            hit = self._table.get(digest)
            if hit is not None:
                self.stats.cassette_replays += 1
                return hit
            self.stats.cassette_misses += 1
        if self._fallback is not None:
            return self._fallback.complete(prompt)
        if self.strict:
            raise CassetteMissError(
                f"cassette {self._path} has no completion for prompt "
                f"digest {digest[:12]}… ({len(self._table)} entries loaded)",
                prompt_digest=digest,
            )
        raise CassetteMissError(
            f"cassette {self._path} missed digest {digest[:12]}… and no "
            "fallback client is configured",
            prompt_digest=digest,
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._table)
