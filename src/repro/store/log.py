"""Append-only JSONL logs with self-checking envelopes.

The checkpoint journal (:mod:`repro.jobs.checkpoint`) and LLM cassettes
(:mod:`repro.providers.cassette`) are the same kind of file, and this
module is the one place that knows its format:

* **Envelope.** Each line is ``{"record": {...}, "sha256": <hex>}`` with
  the digest taken over the canonical JSON of the record (sorted keys,
  no spaces).  :func:`envelope` builds a line; :func:`decode` reads one
  back or raises ``ValueError`` naming why it refused it.
* **Append.** :func:`open_for_append` truncates a torn tail (see
  :func:`repair_tail`) and fsyncs the directory the first time the file
  is created; lines then go through
  :func:`~repro.store.atomic.append_durable_line` (write, flush, fsync),
  so a kill loses at most the line being appended.
* **Scan.** :func:`read_log` splits on ``\\n`` only, skips blank lines,
  and applies one record schema's trust rule.
* **Compaction.** :func:`compact` rewrites a log to its trusted lines,
  byte-verbatim, keeping the original as ``<name>.corrupt``.

A log family supplies only a :class:`LogSchema`: how to key a record
(refusing one it cannot key), whether trust stops at the first refused
line, and which key every trusted log must carry.  Duplicate keys are
first-wins in every family.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Hashable

from repro.store.atomic import atomic_write_text, fsync_dir

#: Reason :func:`decode` gives for an envelope whose digest disagrees.
CHECKSUM_MISMATCH = "checksum mismatch"


def _canonical(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def envelope(record: dict) -> str:
    """One record as a self-checking log line (without its newline)."""
    digest = hashlib.sha256(_canonical(record).encode("utf-8")).hexdigest()
    return _canonical({"sha256": digest, "record": record})


def decode(line: str) -> dict:
    """The record ``line`` carries; ``ValueError(reason)`` if refused."""
    try:
        wrapped = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"unparseable JSON: {exc}") from exc
    if not isinstance(wrapped, dict):
        raise ValueError("envelope is not an object")
    record = wrapped.get("record")
    declared = wrapped.get("sha256")
    if not isinstance(record, dict) or not isinstance(declared, str):
        raise ValueError("envelope missing record/sha256")
    if hashlib.sha256(_canonical(record).encode("utf-8")).hexdigest() != declared:
        raise ValueError(CHECKSUM_MISMATCH)
    return record


def repair_tail(path: str | Path) -> bool:
    """Truncate a torn (newline-less) final line left by a crash.

    Appending without this would join the next line onto the torn
    fragment and make it unreadable too.  Returns True when a tear was
    cut off.
    """
    with open(path, "rb+") as handle:
        size = handle.seek(0, os.SEEK_END)
        if size == 0:
            return False
        handle.seek(size - 1)
        if handle.read(1) == b"\n":
            return False
        # Scan backwards for the last newline; everything after it is the
        # fragment a kill left mid-append.
        keep = 0
        pos = size
        while pos > 0:
            start = max(0, pos - 4096)
            handle.seek(start)
            cut = handle.read(pos - start).rfind(b"\n")
            if cut != -1:
                keep = start + cut + 1
                break
            pos = start
        handle.truncate(keep)
        handle.flush()
        os.fsync(handle.fileno())
    return True


def open_for_append(path: str | Path) -> tuple[IO[str], bool]:
    """Open a log for appending: ``(handle, whether a torn tail was cut)``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    existed = path.exists()
    repaired = existed and repair_tail(path)
    handle = open(path, "a", encoding="utf-8")
    if not existed:
        # Make the (empty) log itself durable before any line, so a crash
        # between creation and the first append cannot resurrect an older
        # unlinked file.
        fsync_dir(path.parent)
    return handle, repaired


@dataclass(frozen=True, slots=True)
class LogSchema:
    """What one log family adds to the shared format.

    ``key`` maps a record to its identity, raising ``ValueError(reason)``
    for a record the family refuses.  With ``prefix`` set, trust ends at
    the first refused line (nothing after it is vouched for); otherwise
    refused lines are skipped.  ``required`` names a key every trusted
    log must carry (the journal's header), or None.
    """

    key: Callable[[dict], Hashable]
    prefix: bool
    required: Hashable | None = None


@dataclass(slots=True)
class LogLine:
    """One non-blank line of a log, decoded and judged."""

    number: int  # 1-based
    text: str  # as stored, without its newline
    last: bool  # the final line of the file
    torn: bool  # final line with no newline: a kill cut it mid-append
    record: dict | None = None  # None when refused
    key: Hashable = None
    reason: str | None = None  # why the line was refused
    duplicate: bool = False  # key already seen on an earlier line
    trusted: bool = False  # what a reader serves


@dataclass(slots=True)
class LogRead:
    """Every line of one log, and what its schema trusts."""

    lines: list[LogLine]
    end: int | None = None  # prefix schemas: the first refused line

    @property
    def trusted(self) -> dict[Hashable, dict]:
        return {line.key: line.record for line in self.lines if line.trusted}

    @property
    def refused(self) -> list[LogLine]:
        return [line for line in self.lines if line.reason is not None]

    @property
    def duplicates(self) -> int:
        """Duplicate lines inside the trusted region."""
        return sum(
            1
            for line in self.lines
            if line.duplicate and (self.end is None or line.number < self.end)
        )


def read_log(path: str | Path, schema: LogSchema) -> LogRead:
    """Scan a log (missing = empty) and apply ``schema``'s trust rule."""
    path = Path(path)
    log = LogRead([])
    if not path.exists():
        return log
    chunks = path.read_bytes().decode("utf-8", errors="replace").split("\n")
    final = len(chunks) - 1 - (chunks[-1] == "")
    seen: set = set()
    for index, text in enumerate(chunks):
        if not text.strip():
            continue
        line = LogLine(
            number=index + 1,
            text=text,
            last=index == final,
            torn=index == len(chunks) - 1,
        )
        log.lines.append(line)
        try:
            line.record = decode(text.strip())
            line.key = schema.key(line.record)
        except ValueError as exc:
            line.record = None
            line.reason = str(exc)
            if schema.prefix and log.end is None:
                log.end = line.number
            continue
        line.duplicate = line.key in seen
        seen.add(line.key)
        line.trusted = log.end is None and not line.duplicate
    return log


def corrupt_path(path: str | Path) -> Path:
    """Where a damaged log's original is kept (``<name>.corrupt``)."""
    path = Path(path)
    return path.with_name(path.name + ".corrupt")


def compact(path: str | Path, schema: LogSchema) -> tuple[int, int]:
    """Rewrite a log to its trusted lines, byte-verbatim, keeping the
    original as ``<name>.corrupt``.  Returns ``(kept, dropped)``."""
    log = read_log(path, schema)
    kept = [line.text for line in log.lines if line.trusted]
    shutil.copy2(path, corrupt_path(path))
    atomic_write_text(path, "".join(text + "\n" for text in kept))
    return len(kept), len(log.lines) - len(kept)
