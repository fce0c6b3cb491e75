"""Versioned, hash-verified, crash-safe snapshot store for policy models.

Directory layout::

    <root>/
      CURRENT              # name of the active snapshot (atomic pointer)
      JOURNAL.json         # write-ahead record for in-flight updates
      snapshots/
        snap-000001/
          MANIFEST.json    # per-artifact sha256 + sizes, format version
          meta.json  segments.json  practices.json  data_taxonomy.json
          graph.json  embeddings.bin
        .tmp-snap-000002/  # commit in progress (garbage-collected on open)
      quarantine/
        snap-000001/       # corrupt snapshot moved aside, with report.json

**Format versions.**  Commits write format version 3, the artifacts
above (see :mod:`repro.store.serialize`).  Versions 1 and 2 are read
only: both also list ``entity_taxonomy.json``, which is hash-verified
like every listed artifact but never decoded, and version 1 lists
``embeddings.npz`` in place of ``embeddings.bin``.  Either still
verifies and loads to the same model; neither is rewritten in place.

**Commit protocol.**  A snapshot is staged in a ``.tmp-`` directory (every
artifact written and fsync'd, then the manifest), renamed to its final
name in one atomic step, and only then *published* by atomically
rewriting ``CURRENT``.  A crash at any boundary leaves ``CURRENT``
pointing at a complete, hash-valid snapshot — old or new, never a hybrid.

**Update journal.**  :meth:`commit_update` brackets the commit with a
write-ahead journal naming the base and successor snapshots.  Recovery
(:meth:`recover`, run automatically by :meth:`load` and every commit)
rolls *forward* when the successor exists complete and hash-valid, and
rolls *back* (dropping partial state) otherwise, then clears the journal.

**Verification & quarantine.**  :meth:`load` reads each artifact once,
hashes it against the manifest, and structurally replays the bytes it
hashed rather than reading the file again.  A snapshot that fails is
moved to ``quarantine/`` with a structured
:class:`QuarantineReport`, and the store falls back to the newest
remaining snapshot that verifies; only when none survives does it raise
:class:`~repro.errors.SnapshotCorruptionError`.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.pipeline import PolicyModel
from repro.errors import (
    SnapshotCorruptionError,
    SnapshotError,
    SnapshotNotFoundError,
)
from repro.store.atomic import StepHook, atomic_write_json, atomic_write_text, fsync_dir
from repro.store.serialize import (
    MODEL_ARTIFACTS,
    V1_MODEL_ARTIFACTS,
    V2_MODEL_ARTIFACTS,
    model_artifacts,
    model_from_artifacts,
)

FORMAT_VERSION = 3
#: The artifact set a manifest of each readable format version lists.
_FORMAT_ARTIFACTS = {
    1: V1_MODEL_ARTIFACTS,
    2: V2_MODEL_ARTIFACTS,
    FORMAT_VERSION: MODEL_ARTIFACTS,
}
MANIFEST_NAME = "MANIFEST.json"
CURRENT_NAME = "CURRENT"
JOURNAL_NAME = "JOURNAL.json"
_TMP_PREFIX = ".tmp-"
_SNAP_PREFIX = "snap-"


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


@dataclass(slots=True)
class SnapshotInfo:
    """Identity and provenance of one committed snapshot."""

    snapshot_id: str
    sequence: int
    revision: int
    company: str
    path: Path

    def as_dict(self) -> dict[str, object]:
        return {
            "snapshot_id": self.snapshot_id,
            "sequence": self.sequence,
            "revision": self.revision,
            "company": self.company,
            "path": str(self.path),
        }


@dataclass(slots=True)
class QuarantineReport:
    """Structured record of one quarantined (corrupt) snapshot."""

    snapshot_id: str
    reason: str
    failures: list[str] = field(default_factory=list)
    quarantined_to: str | None = None

    def summary(self) -> str:
        lines = [f"quarantined {self.snapshot_id}: {self.reason}"]
        lines.extend(f"  - {failure}" for failure in self.failures)
        if self.quarantined_to:
            lines.append(f"  moved to {self.quarantined_to}")
        return "\n".join(lines)

    def as_dict(self) -> dict[str, object]:
        return {
            "snapshot_id": self.snapshot_id,
            "reason": self.reason,
            "failures": list(self.failures),
            "quarantined_to": self.quarantined_to,
        }


@dataclass(slots=True)
class LoadResult:
    """Outcome of one :meth:`SnapshotStore.load`."""

    model: PolicyModel
    snapshot_id: str
    fallback_from: str | None = None  # corrupt id we fell back from
    quarantined: list[QuarantineReport] = field(default_factory=list)
    journal_recovery: str | None = None  # "rolled_forward" | "rolled_back"
    seconds: float = 0.0

    @property
    def clean(self) -> bool:
        """True when no quarantine or journal recovery was needed."""
        return not self.quarantined and self.journal_recovery is None


class SnapshotStore:
    """Crash-safe snapshot directory for one policy's models.

    Args:
        root: store directory (created on first commit).
        keep_snapshots: retention bound — after a commit, only this many
            newest snapshots are kept (the current one always survives).
        step: crash-injection hook forwarded to every durable operation;
            ``None`` in production (see :mod:`repro.store.faults`).
    """

    def __init__(
        self,
        root: str | Path,
        *,
        keep_snapshots: int = 8,
        step: StepHook | None = None,
    ) -> None:
        if keep_snapshots < 1:
            raise SnapshotError("keep_snapshots must be >= 1")
        self.root = Path(root)
        self.keep_snapshots = keep_snapshots
        self._step = step
        self.snapshots_dir = self.root / "snapshots"
        self.quarantine_dir = self.root / "quarantine"

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def current_id(self) -> str | None:
        """Name of the published snapshot, or ``None``."""
        try:
            text = (self.root / CURRENT_NAME).read_text("utf-8").strip()
        except OSError:
            return None
        return text or None

    def snapshot_ids(self) -> list[str]:
        """Committed snapshot names, oldest first."""
        if not self.snapshots_dir.is_dir():
            return []
        return sorted(
            entry.name
            for entry in self.snapshots_dir.iterdir()
            if entry.is_dir() and entry.name.startswith(_SNAP_PREFIX)
        )

    def _next_sequence(self) -> int:
        # Quarantined snapshots count too: their sequence numbers must never
        # be reissued, or a re-quarantine would overwrite forensic evidence.
        names = list(self.snapshot_ids())
        if self.quarantine_dir.is_dir():
            names.extend(
                entry.name
                for entry in self.quarantine_dir.iterdir()
                if entry.name.startswith(_SNAP_PREFIX)
            )
        highest = 0
        for name in names:
            try:
                highest = max(highest, int(name[len(_SNAP_PREFIX) :]))
            except ValueError:
                continue
        return highest + 1

    def manifest(self, snapshot_id: str) -> dict[str, object]:
        path = self.snapshots_dir / snapshot_id / MANIFEST_NAME
        try:
            manifest = json.loads(path.read_text("utf-8"))
        except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or JSON
            raise SnapshotCorruptionError(
                f"manifest of {snapshot_id} unreadable: {exc}"
            ) from exc
        if not isinstance(manifest, dict):
            raise SnapshotCorruptionError(
                f"manifest of {snapshot_id} is not a JSON object"
            )
        return manifest

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def verify_snapshot(self, snapshot_id: str) -> list[str]:
        """Hash-verify one snapshot; returns failure descriptions (empty = ok)."""
        return self._read_verified(snapshot_id)[0]

    def _read_verified(self, snapshot_id: str) -> tuple[list[str], dict[str, bytes]]:
        """Read each artifact once and hash it: ``(failures, payloads)``.

        ``payloads`` maps each artifact whose hash matched to the bytes
        that were hashed, so a caller decodes exactly what was verified,
        whatever happens to the files afterwards.  It is complete only
        when ``failures`` is empty.
        """
        directory = self.snapshots_dir / snapshot_id
        if not directory.is_dir():
            return [f"snapshot directory {snapshot_id} missing"], {}
        try:
            manifest = self.manifest(snapshot_id)
        except SnapshotCorruptionError as exc:
            return [str(exc)], {}
        version = manifest.get("format_version")
        expected = _FORMAT_ARTIFACTS.get(version) if type(version) is int else None
        if expected is None:
            return [f"unsupported format_version {version!r}"], {}
        artifacts = manifest.get("artifacts")
        if not isinstance(artifacts, dict) or set(artifacts) != set(expected):
            return ["manifest artifact list does not match the format"], {}
        failures: list[str] = []
        payloads: dict[str, bytes] = {}
        for name, entry in artifacts.items():
            path = directory / name
            try:
                payload = path.read_bytes()
            except OSError as exc:
                failures.append(f"{name}: unreadable ({exc})")
                continue
            digest = _sha256(payload)
            if digest != entry.get("sha256"):
                failures.append(
                    f"{name}: sha256 mismatch (manifest {entry.get('sha256')!r:.20}, "
                    f"actual {digest!r:.20})"
                )
            else:
                payloads[name] = payload
        return failures, payloads

    # ------------------------------------------------------------------
    # Commit protocol
    # ------------------------------------------------------------------

    def commit(self, model: PolicyModel) -> SnapshotInfo:
        """Atomically persist ``model`` as a new published snapshot."""
        self.recover()
        return self._commit(model)

    def _commit(self, model: PolicyModel) -> SnapshotInfo:
        payloads = model_artifacts(model)
        self._note("serialize")
        sequence = self._next_sequence()
        snapshot_id = f"{_SNAP_PREFIX}{sequence:06d}"

        self.snapshots_dir.mkdir(parents=True, exist_ok=True)
        staging = self.snapshots_dir / f"{_TMP_PREFIX}{snapshot_id}"
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir()
        self._note("stage_dir")

        manifest_artifacts: dict[str, dict[str, object]] = {}
        for name in MODEL_ARTIFACTS:
            payload = payloads[name]
            path = staging / name
            with open(path, "wb") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            manifest_artifacts[name] = {
                "sha256": _sha256(payload),
                "bytes": len(payload),
            }
            self._note(f"write:{name}")
        manifest = {
            "format_version": FORMAT_VERSION,
            "snapshot_id": snapshot_id,
            "sequence": sequence,
            "company": model.company,
            "revision": model.revision,
            "artifacts": manifest_artifacts,
        }
        manifest_bytes = json.dumps(manifest, indent=1).encode("utf-8")
        with open(staging / MANIFEST_NAME, "wb") as handle:
            handle.write(manifest_bytes)
            handle.flush()
            os.fsync(handle.fileno())
        self._note(f"write:{MANIFEST_NAME}")
        fsync_dir(staging)
        self._note("sync_stage_dir")

        final = self.snapshots_dir / snapshot_id
        os.replace(staging, final)
        self._note("rename_snapshot")
        fsync_dir(self.snapshots_dir)
        self._note("sync_snapshots_dir")

        self._publish(snapshot_id)
        self._prune(keep_id=snapshot_id)
        return SnapshotInfo(
            snapshot_id=snapshot_id,
            sequence=sequence,
            revision=model.revision,
            company=model.company,
            path=final,
        )

    def _publish(self, snapshot_id: str) -> None:
        atomic_write_text(
            self.root / CURRENT_NAME, snapshot_id + "\n", step=self._step, label=CURRENT_NAME
        )
        self._note("publish_current")

    def commit_update(self, model: PolicyModel) -> SnapshotInfo:
        """Journaled commit for an incrementally updated model.

        Writes a write-ahead record naming the base (currently published)
        snapshot and the successor before staging it, so a crash anywhere
        in the commit deterministically recovers to exactly one of the two
        states — see :meth:`recover`.
        """
        self.recover()
        base = self.current_id()
        successor = f"{_SNAP_PREFIX}{self._next_sequence():06d}"
        atomic_write_json(
            self.root / JOURNAL_NAME,
            {"op": "update", "base": base, "new": successor},
            step=self._step,
            label=JOURNAL_NAME,
        )
        self._note("journal_begin")
        info = self._commit(model)
        try:
            os.unlink(self.root / JOURNAL_NAME)
        except OSError:
            pass
        self._note("journal_clear")
        fsync_dir(self.root)
        return info

    def _prune(self, *, keep_id: str) -> None:
        """Retention: drop the oldest snapshots beyond ``keep_snapshots``."""
        ids = self.snapshot_ids()
        excess = len(ids) - self.keep_snapshots
        for snapshot_id in ids:
            if excess <= 0:
                break
            if snapshot_id == keep_id or snapshot_id == self.current_id():
                continue
            shutil.rmtree(self.snapshots_dir / snapshot_id, ignore_errors=True)
            excess -= 1

    def _note(self, name: str) -> None:
        if self._step is not None:
            self._step(name)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def recover(self) -> str | None:
        """Apply journal recovery and garbage-collect staging directories.

        Returns ``"rolled_forward"``, ``"rolled_back"``, or ``None`` when
        there was no pending journal.  Idempotent; called automatically at
        the top of :meth:`load`, :meth:`commit`, and :meth:`commit_update`.
        """
        outcome: str | None = None
        journal_path = self.root / JOURNAL_NAME
        record: dict[str, object] | None = None
        if journal_path.exists():
            try:
                record = json.loads(journal_path.read_text("utf-8"))
            except (OSError, json.JSONDecodeError):
                record = None  # torn journal: the update never staged anything
        if record is not None:
            successor = record.get("new")
            current = self.current_id()
            if isinstance(successor, str) and current != successor:
                if not self.verify_snapshot(successor):
                    # The successor is complete and hash-valid: the crash hit
                    # between rename and publish.  Roll forward.
                    self._publish(successor)
                    outcome = "rolled_forward"
                else:
                    # Partial successor: drop it, stay on the base snapshot.
                    shutil.rmtree(
                        self.snapshots_dir / successor, ignore_errors=True
                    )
                    outcome = "rolled_back"
            elif isinstance(successor, str):
                outcome = "rolled_forward"  # published but journal not cleared
        if journal_path.exists():
            try:
                os.unlink(journal_path)
            except OSError:
                pass
            fsync_dir(self.root)
        if self.snapshots_dir.is_dir():
            for entry in self.snapshots_dir.iterdir():
                if entry.name.startswith(_TMP_PREFIX):
                    shutil.rmtree(entry, ignore_errors=True)
        return outcome

    # ------------------------------------------------------------------
    # Quarantine + load
    # ------------------------------------------------------------------

    def quarantine(self, snapshot_id: str, failures: list[str]) -> QuarantineReport:
        """Move a corrupt snapshot aside and write a structured report."""
        report = QuarantineReport(
            snapshot_id=snapshot_id,
            reason="snapshot failed verification",
            failures=list(failures),
        )
        source = self.snapshots_dir / snapshot_id
        if source.is_dir():
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            destination = self.quarantine_dir / snapshot_id
            if destination.exists():  # re-quarantine: keep the newest evidence
                shutil.rmtree(destination, ignore_errors=True)
            os.replace(source, destination)
            fsync_dir(self.quarantine_dir)
            fsync_dir(self.snapshots_dir)
            report.quarantined_to = str(destination)
            atomic_write_json(destination / "report.json", report.as_dict())
        return report

    def load(self) -> LoadResult:
        """Load the newest hash-valid snapshot, quarantining corrupt ones.

        Raises :class:`~repro.errors.SnapshotNotFoundError` when the store
        has never committed, and
        :class:`~repro.errors.SnapshotCorruptionError` when every
        candidate snapshot failed verification (each has been quarantined
        with its report).
        """
        started = time.perf_counter()
        journal_recovery = self.recover()
        current = self.current_id()
        if current is None and not self.snapshot_ids():
            raise SnapshotNotFoundError(f"no snapshot committed under {self.root}")

        quarantined: list[QuarantineReport] = []
        fallback_from: str | None = None
        candidates: list[str] = []
        if current is not None:
            candidates.append(current)
        candidates.extend(
            snapshot_id
            for snapshot_id in reversed(self.snapshot_ids())
            if snapshot_id != current
        )

        for snapshot_id in candidates:
            failures, payloads = self._read_verified(snapshot_id)
            if not failures:
                try:
                    model = model_from_artifacts(payloads)
                except SnapshotCorruptionError as exc:
                    failures = [str(exc)]
            if failures:
                quarantined.append(self.quarantine(snapshot_id, failures))
                if snapshot_id == current:
                    fallback_from = current
                continue
            if snapshot_id != current:
                # Re-point CURRENT at the survivor so the next start is clean.
                self._publish(snapshot_id)
            return LoadResult(
                model=model,
                snapshot_id=snapshot_id,
                fallback_from=fallback_from,
                quarantined=quarantined,
                journal_recovery=journal_recovery,
                seconds=time.perf_counter() - started,
            )
        raise SnapshotCorruptionError(
            f"no hash-valid snapshot under {self.root} "
            f"({len(quarantined)} quarantined)",
            reports=tuple(quarantined),
        )
