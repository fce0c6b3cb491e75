"""Layout discovery + one unified integrity scan (``repro-policy fsck``).

:func:`run_fsck` points at *anything* durable this system writes — a
registry root, a single snapshot store, a checkpoint directory, a
cassette file, a cert-quarantine directory, or a tree containing any mix
— classifies what it finds, runs the right walker over each target, and
merges everything into one :class:`~repro.integrity.findings.IntegrityReport`.

Classification is structural, not positional: a directory containing
``REGISTRY.json`` is a registry (its walker owns the whole subtree), one
with ``CURRENT`` or ``snapshots/`` is a store, one with ``journal.jsonl``
is a checkpoint, ``cert-*`` children make a cert quarantine, and any
other ``*.jsonl`` file is a cassette.  Unclassified directories are
recursed into, so one ``fsck /var/lib/repro`` covers a whole deployment.
"""

from __future__ import annotations

import time
from functools import partial
from pathlib import Path

from repro.errors import IntegrityError
from repro.integrity.findings import IntegrityReport
from repro.integrity.walkers import (
    walk_cert_quarantine,
    walk_log,
    walk_registry,
    walk_store,
)

#: Walker dispatch by target kind.
_WALKERS = {
    "registry": walk_registry,
    "store": walk_store,
    "checkpoint": partial(walk_log, family="checkpoint"),
    "cassette": partial(walk_log, family="cassette"),
    "certs": walk_cert_quarantine,
}

#: Directory names never recursed into during discovery: quarantines are
#: resolved evidence (counted, not re-flagged), and a store/registry
#: walker already accounts for its own.
_SKIP_DIRS = frozenset({"quarantine", "damaged"})


def classify_root(path: str | Path) -> str | None:
    """The artifact family ``path`` itself is, or ``None`` for a plain
    directory that only *contains* artifacts (recurse to find them)."""
    from repro.jobs.checkpoint import JOURNAL_NAME
    from repro.registry.manifest import MANIFEST_NAME
    from repro.store.snapshot import CURRENT_NAME

    path = Path(path)
    if path.is_file():
        if path.name == JOURNAL_NAME:
            return "checkpoint"
        if path.suffix == ".jsonl":
            return "cassette"
        return None
    if not path.is_dir():
        return None
    if (path / MANIFEST_NAME).exists():
        return "registry"
    if (path / CURRENT_NAME).exists() or (path / "snapshots").is_dir():
        return "store"
    if (path / JOURNAL_NAME).exists():
        return "checkpoint"
    if any(
        child.is_dir() and child.name.startswith("cert-")
        for child in path.iterdir()
    ):
        return "certs"
    return None


def discover_targets(root: str | Path) -> list[tuple[str, Path]]:
    """Every ``(kind, path)`` under ``root``, deterministically ordered.

    A classified directory is a walk boundary: its walker owns the
    subtree, so discovery does not descend into it (a registry's member
    stores must not be double-walked).
    """
    from repro.jobs.checkpoint import JOURNAL_NAME

    root = Path(root)
    targets: list[tuple[str, Path]] = []

    def visit(directory: Path) -> None:
        kind = classify_root(directory)
        if kind is not None:
            targets.append((kind, directory))
            if kind in ("registry", "store"):
                return  # the walker owns the whole subtree
            # A checkpoint or cert quarantine may share its directory
            # with other artifacts (e.g. a pipeline workdir); keep
            # scanning, but not the cert-* dirs themselves.
        for child in sorted(directory.iterdir()):
            if child.is_dir():
                if child.name in _SKIP_DIRS or child.name.startswith("cert-"):
                    continue
                visit(child)
            elif child.suffix == ".jsonl" and child.name != JOURNAL_NAME:
                targets.append(("cassette", child))

    if root.is_file():
        file_kind = classify_root(root)
        return [] if file_kind is None else [(file_kind, root)]
    visit(root)
    return targets


def run_fsck(root: str | Path) -> IntegrityReport:
    """Discover and verify every durable artifact under ``root``."""
    root = Path(root)
    if not root.exists():
        raise IntegrityError(f"fsck root {root} does not exist")
    started = time.perf_counter()
    report = IntegrityReport(root=str(root))
    for kind, target in discover_targets(root):
        report.merge(_WALKERS[kind](target))
    report.seconds = time.perf_counter() - started
    return report
