"""Atomic, fsync'd file-write primitives with named crash steps.

Every durable write in the model store goes through this module: the
payload is written to a temporary file *in the destination directory*,
flushed and fsync'd, renamed over the target, and the directory entry is
fsync'd.  A crash at any instant therefore leaves either the old file or
the new one — never a truncated hybrid.

The ``step`` hook is the crash-injection seam: commit protocols pass a
callable that is invoked *after* each named sub-operation completes
(``write:<label>``, ``rename:<label>``, ``syncdir:<label>``).  Production
code passes ``None``; the fault harness passes an injector that raises at
a designated step, simulating a kill between exactly those two
operations.  See :mod:`repro.store.faults`.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Callable

#: Crash-step hook: called with a step name after that step completes.
StepHook = Callable[[str], None]


def _step(hook: StepHook | None, name: str) -> None:
    if hook is not None:
        hook(name)


def fsync_dir(path: Path) -> None:
    """fsync a directory so a just-renamed entry survives a power loss.

    Silently skipped on platforms whose directories cannot be opened for
    reading (Windows); rename atomicity still holds there.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-specific
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def append_durable_line(
    handle,
    line: str,
    *,
    step: StepHook | None = None,
    label: str | None = None,
) -> None:
    """Append one newline-terminated record to an open log handle.

    The complement of :func:`atomic_write_bytes` for append-only logs: the
    line is written, flushed, and fsync'd before the call returns, so a
    crash after the call can lose at most records appended *later*.  A
    crash *during* the write can leave a torn final line — readers
    therefore skip it and writers cut it before appending (see
    :mod:`repro.store.log`).  Steps: ``append:<label>``, ``sync:<label>``.
    """
    label = label or "line"
    handle.write(line + "\n")
    handle.flush()
    _step(step, f"append:{label}")
    os.fsync(handle.fileno())
    _step(step, f"sync:{label}")


def atomic_write_bytes(
    path: str | Path,
    payload: bytes,
    *,
    step: StepHook | None = None,
    label: str | None = None,
) -> None:
    """Durably replace ``path`` with ``payload`` via temp-file + rename."""
    path = Path(path)
    label = label or path.name
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        _step(step, f"write:{label}")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    _step(step, f"rename:{label}")
    fsync_dir(path.parent)
    _step(step, f"syncdir:{label}")


def atomic_write_text(
    path: str | Path,
    text: str,
    *,
    step: StepHook | None = None,
    label: str | None = None,
) -> None:
    """UTF-8 text variant of :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode("utf-8"), step=step, label=label)


def atomic_write_json(
    path: str | Path,
    obj: object,
    *,
    indent: int | None = 1,
    step: StepHook | None = None,
    label: str | None = None,
) -> None:
    """JSON variant of :func:`atomic_write_bytes` (sorted, stable keys)."""
    atomic_write_text(
        path, json.dumps(obj, indent=indent, sort_keys=False), step=step, label=label
    )
