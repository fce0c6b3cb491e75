"""The deterministic repair planner: dry-run plan, then ``apply()``.

:func:`plan_repairs` turns an :class:`~repro.integrity.findings.IntegrityReport`
into a :class:`RepairPlan` — a typed, ordered list of
:class:`RepairAction`\\ s that can be printed (dry run) before anything
touches disk.  :meth:`RepairPlan.apply` then executes it, reusing the
formats' own healing machinery instead of inventing new write paths:

* **stores** — journal roll-forward/back and staging GC via
  ``SnapshotStore.recover()``, corrupt snapshots quarantined with their
  structured reports, the newest valid snapshot republished via
  ``SnapshotStore.load()``, and — when a ``rebuilder`` is supplied —
  rebuild-from-text recommits an empty store (the same fallback
  ``PolicyPipeline.load_model(policy_text=...)`` uses), so repaired
  stores serve **byte-identical verdicts**;
* **registry** — the manifest is rebuilt from surviving stores' own
  snapshot manifests, dangling entries are dropped *with provenance*
  (the dropped entry is written to ``quarantine/``), and orphan stores
  are adopted back into the index;
* **append-only logs** (checkpoint journals and cassettes) — a journal's
  torn tail truncates in place (the writer's own reopen repair); other
  damage compacts the log to what its reader trusts (lines kept
  byte-verbatim), the original preserved as ``<name>.corrupt``; a
  headerless journal moves aside whole;
* **cert quarantines** — damaged evidence is never "fixed" (it *is*
  the forensic record); it moves to ``damaged/`` with a provenance
  note, so triage never trusts bytes that fail their own digest.

Unrepairable damage is always quarantined loudly, never silently served:
it stays on :attr:`RepairPlan.unrepairable` and keeps ``fsck``'s exit
code at 9 even after a repair pass.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.errors import IntegrityError, SnapshotError
from repro.integrity.findings import (
    KIND_CROSS_REF,
    KIND_MISSING_REFERENT,
    KIND_ORPHAN,
    KIND_PENDING_JOURNAL,
    KIND_TORN_TAIL,
    Finding,
    IntegrityReport,
)

#: Optional rebuild seam: given a store root, return a fresh
#: :class:`~repro.core.pipeline.PolicyModel` to recommit (rebuild-from-
#: text), or ``None`` when no source text is known for that store.
Rebuilder = Callable[[str], object]

#: Deterministic family repair order: member stores heal before the
#: registry index is reconciled against them.
_FAMILY_ORDER = {"store": 0, "registry": 1, "checkpoint": 2, "cassette": 3, "certs": 4}


@dataclass(slots=True)
class RepairAction:
    """One planned (then executed) repair step."""

    action: str
    family: str
    root: str
    path: str
    detail: str
    subject: str | None = None
    status: str = "planned"  # planned | applied | failed | skipped
    result: str = ""

    def summary(self) -> str:
        head = f"{self.family}/{self.action} {self.path}"
        if self.subject:
            head += f" [{self.subject}]"
        tail = f" -> {self.status}" + (f": {self.result}" if self.result else "")
        return head + (tail if self.status != "planned" else f": {self.detail}")

    def as_dict(self) -> dict[str, object]:
        return {
            "action": self.action,
            "family": self.family,
            "root": self.root,
            "path": self.path,
            "detail": self.detail,
            "subject": self.subject,
            "status": self.status,
            "result": self.result,
        }


@dataclass(slots=True)
class RepairPlan:
    """A dry-run repair plan; :meth:`apply` executes it exactly once."""

    root: str
    actions: list[RepairAction] = field(default_factory=list)
    unrepairable: list[Finding] = field(default_factory=list)
    applied: bool = False

    @property
    def empty(self) -> bool:
        return not self.actions and not self.unrepairable

    def summary(self) -> str:
        if self.empty:
            return f"repair plan for {self.root}: nothing to do"
        lines = [
            f"repair plan for {self.root}: {len(self.actions)} actions, "
            f"{len(self.unrepairable)} unrepairable findings"
        ]
        lines.extend("  " + action.summary() for action in self.actions)
        for finding in self.unrepairable:
            lines.append("  unrepairable: " + finding.summary())
        return "\n".join(lines)

    def as_dict(self) -> dict[str, object]:
        return {
            "root": self.root,
            "applied": self.applied,
            "actions": [action.as_dict() for action in self.actions],
            "unrepairable": [f.as_dict() for f in self.unrepairable],
        }

    def apply(self, *, rebuilder: Rebuilder | None = None) -> "RepairPlan":
        """Execute every action in plan order; statuses record outcomes.

        Deterministic and idempotent at the *state* level: re-running a
        plan against the already-repaired tree finds each action's goal
        already met.  Raises :class:`~repro.errors.IntegrityError` if the
        plan was already applied (build a fresh plan from a fresh scan).
        """
        if self.applied:
            raise IntegrityError("repair plan already applied; re-run fsck")
        self.applied = True
        by_root: dict[tuple[str, str], list[RepairAction]] = {}
        for action in self.actions:
            by_root.setdefault((action.family, action.root), []).append(action)
        for (family, root), actions in sorted(
            by_root.items(), key=lambda item: (_FAMILY_ORDER[item[0][0]], item[0][1])
        ):
            handler = _APPLIERS[family]
            try:
                handler(Path(root), actions, rebuilder)
            except Exception as exc:  # noqa: BLE001 - isolate per root
                for action in actions:
                    if action.status == "planned":
                        action.status = "failed"
                        action.result = f"{type(exc).__name__}: {exc}"
        return self

    @property
    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for action in self.actions:
            out[action.status] = out.get(action.status, 0) + 1
        return out


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------


def plan_repairs(report: IntegrityReport) -> RepairPlan:
    """Derive the deterministic repair plan for one scan report."""
    plan = RepairPlan(root=report.root)
    plan.unrepairable = list(report.unrepairable)
    by_root: dict[tuple[str, str], list[Finding]] = {}
    for finding in report.findings:
        by_root.setdefault((finding.family, finding.root), []).append(finding)
    for (family, root), findings in sorted(
        by_root.items(), key=lambda item: (_FAMILY_ORDER[item[0][0]], item[0][1])
    ):
        planner = _PLANNERS[family]
        plan.actions.extend(planner(root, findings))
    return plan


def _plan_store(root: str, findings: list[Finding]) -> list[RepairAction]:
    actions: list[RepairAction] = []
    quarantine_subjects: list[str] = []
    needs_recover = False
    needs_republish = False
    store_lost = False
    for finding in findings:
        if finding.kind == KIND_PENDING_JOURNAL:
            needs_recover = True
        elif finding.kind == KIND_ORPHAN and finding.repairable:
            actions.append(
                RepairAction(
                    action="gc-staging",
                    family="store",
                    root=root,
                    path=finding.path,
                    detail="remove the interrupted commit's staging directory",
                )
            )
        elif finding.subject and finding.subject.startswith("snap-"):
            if finding.subject not in quarantine_subjects:
                quarantine_subjects.append(finding.subject)
            if not finding.repairable:
                store_lost = True
        elif finding.kind in (KIND_MISSING_REFERENT, KIND_CROSS_REF):
            # Pointer damage (CURRENT dangling or missing).
            needs_republish = finding.repairable or needs_republish
            store_lost = store_lost or not finding.repairable
    if needs_recover:
        actions.append(
            RepairAction(
                action="recover-journal",
                family="store",
                root=root,
                path=str(Path(root) / "JOURNAL.json"),
                detail="resolve the pending update: roll forward if the "
                "successor verifies, roll back otherwise",
            )
        )
    for subject in sorted(quarantine_subjects):
        actions.append(
            RepairAction(
                action="quarantine-snapshot",
                family="store",
                root=root,
                path=str(Path(root) / "snapshots" / subject),
                detail="move the corrupt snapshot aside with a structured "
                "report (provenance preserved)",
                subject=subject,
            )
        )
    if quarantine_subjects or needs_republish:
        actions.append(
            RepairAction(
                action="republish-current",
                family="store",
                root=root,
                path=str(Path(root) / "CURRENT"),
                detail="re-point the published snapshot at the newest "
                "hash-valid survivor",
            )
        )
    if store_lost:
        actions.append(
            RepairAction(
                action="rebuild-store",
                family="store",
                root=root,
                path=root,
                detail="no valid snapshot survives: rebuild from policy "
                "text and recommit (skipped when no rebuilder is given; "
                "extraction is deterministic, so the rebuilt model serves "
                "byte-identical verdicts)",
            )
        )
    return actions


def _plan_registry(root: str, findings: list[Finding]) -> list[RepairAction]:
    actions: list[RepairAction] = []
    for finding in findings:
        if finding.kind == "format-error":
            actions.append(
                RepairAction(
                    action="rebuild-manifest",
                    family="registry",
                    root=root,
                    path=finding.path,
                    detail="quarantine the unreadable manifest and rebuild "
                    "the index from surviving stores' own snapshot manifests",
                )
            )
        elif finding.kind == KIND_MISSING_REFERENT and finding.subject:
            actions.append(
                RepairAction(
                    action="drop-entry",
                    family="registry",
                    root=root,
                    path=finding.path,
                    detail="drop the dangling manifest entry; its full "
                    "provenance is written to quarantine/ first",
                    subject=finding.subject,
                )
            )
        elif finding.kind == KIND_ORPHAN:
            actions.append(
                RepairAction(
                    action="adopt-store",
                    family="registry",
                    root=root,
                    path=finding.path,
                    detail="register the orphan store under the company its "
                    "published snapshot manifest names",
                )
            )
        elif finding.kind == KIND_CROSS_REF and finding.subject:
            actions.append(
                RepairAction(
                    action="rewrite-entry",
                    family="registry",
                    root=root,
                    path=finding.path,
                    detail="recompute the entry's shard assignment from "
                    "sha256(company) mod num_shards",
                    subject=finding.subject,
                )
            )
    return actions


def _plan_log(root: str, findings: list[Finding]) -> list[RepairAction]:
    family = findings[0].family
    if any(not f.repairable for f in findings):
        action = "quarantine-journal"
        detail = (
            "no header binds these records to a suite: move the whole "
            "journal aside as journal.jsonl.corrupt (never resumed from)"
        )
    elif family == "checkpoint" and all(
        f.kind == KIND_TORN_TAIL and f.severity.name == "WARN" for f in findings
    ):
        action = "truncate-tail"
        detail = (
            "truncate the torn final line back to the last complete record "
            "(the writer's own reopen repair)"
        )
    else:
        action = "compact-journal" if family == "checkpoint" else "compact-cassette"
        detail = (
            "rewrite the log to the lines its reader trusts, byte-verbatim; "
            "the damaged original is kept as <name>.corrupt"
        )
    return [
        RepairAction(
            action=action,
            family=family,
            root=root,
            path=findings[0].path,
            detail=detail,
        )
    ]


def _plan_certs(root: str, findings: list[Finding]) -> list[RepairAction]:
    actions: list[RepairAction] = []
    seen: set[str] = set()
    for finding in findings:
        subject = finding.subject or Path(finding.path).name
        if subject in seen:
            continue
        seen.add(subject)
        actions.append(
            RepairAction(
                action="quarantine-evidence",
                family="certs",
                root=root,
                path=str(Path(root) / subject),
                detail="damaged certificate evidence cannot be repaired "
                "(it IS the forensic record); move it to damaged/ with a "
                "provenance note so triage never trusts it",
                subject=subject,
            )
        )
    return actions


_PLANNERS = {
    "store": _plan_store,
    "registry": _plan_registry,
    "checkpoint": _plan_log,
    "cassette": _plan_log,
    "certs": _plan_certs,
}


# ----------------------------------------------------------------------
# Application
# ----------------------------------------------------------------------


def _apply_store(
    root: Path, actions: list[RepairAction], rebuilder: Rebuilder | None
) -> None:
    from repro.store.snapshot import SnapshotStore

    store = SnapshotStore(root)
    for action in actions:
        if action.action == "gc-staging":
            shutil.rmtree(action.path, ignore_errors=True)
            action.status = "applied"
            action.result = "staging directory removed"
        elif action.action == "recover-journal":
            outcome = store.recover()
            action.status = "applied"
            action.result = outcome or "journal already resolved"
        elif action.action == "quarantine-snapshot":
            failures = store.verify_snapshot(action.subject)
            if not failures:
                # Internally valid but cross-referenced wrong (swapped
                # directory): quarantine on the identity mismatch.
                declared = store.manifest(action.subject).get("snapshot_id")
                if declared == action.subject:
                    action.status = "skipped"
                    action.result = "snapshot verifies; nothing to quarantine"
                    continue
                failures = [
                    f"manifest names {declared!r}, directory is "
                    f"{action.subject}"
                ]
            report = store.quarantine(action.subject, failures)
            action.status = "applied"
            action.result = f"moved to {report.quarantined_to}"
        elif action.action == "republish-current":
            try:
                result = store.load()
            except SnapshotError as exc:
                action.status = "failed"
                action.result = f"no valid snapshot to publish: {exc}"
                continue
            action.status = "applied"
            action.result = f"serving {result.snapshot_id}"
        elif action.action == "rebuild-store":
            model = rebuilder(str(root)) if rebuilder is not None else None
            if model is None:
                action.status = "skipped"
                action.result = (
                    "no rebuilder/policy text available for this store"
                )
                continue
            # recover() first: a pending journal or staging dir must not
            # outlive the rebuild.
            store.recover()
            info = store.commit(model)
            action.status = "applied"
            action.result = f"rebuilt and committed {info.snapshot_id}"


def _consistent_num_shards(
    companies_by_shard: list[tuple[str, str]], default: int = 8
) -> int:
    """The smallest shard count under which every observed company hashes
    to the shard directory it sits in (falling back to ``default``)."""
    from repro.registry.manifest import shard_of

    if companies_by_shard:
        for candidate in range(1, 65):
            if all(
                shard_of(company, candidate) == shard
                for company, shard in companies_by_shard
            ):
                return candidate
    return default


def _store_entry(root: Path, store_dir: Path):
    """Build a manifest entry from a store's own published snapshot, or
    ``None`` when the store has no valid snapshot to vouch for it."""
    from repro.registry.manifest import RegistryEntry
    from repro.store.snapshot import SnapshotStore

    store = SnapshotStore(store_dir)
    current = store.current_id()
    candidates = [current] if current else []
    candidates.extend(s for s in reversed(store.snapshot_ids()) if s != current)
    for snapshot_id in candidates:
        if store.verify_snapshot(snapshot_id):
            continue
        manifest = store.manifest(snapshot_id)
        company = manifest.get("company")
        revision = manifest.get("revision")
        if not isinstance(company, str) or not isinstance(revision, int):
            continue
        meta_path = store.snapshots_dir / snapshot_id / "meta.json"
        sector = target_words = None
        try:
            meta = json.loads(meta_path.read_text("utf-8"))
            provenance = meta.get("provenance")
            if isinstance(provenance, dict):
                sector = provenance.get("sector")
                target_words = provenance.get("target_words")
        except (OSError, json.JSONDecodeError):  # pragma: no cover - verified above
            pass
        return RegistryEntry(
            company=company,
            shard=store_dir.parent.name,
            store_dir=store_dir.relative_to(root).as_posix(),
            revision=revision,
            sector=sector if isinstance(sector, str) else None,
            seed=None,  # generator seed is not persisted in the snapshot
            target_words=target_words if isinstance(target_words, int) else None,
        )
    return None


def _apply_registry(
    root: Path, actions: list[RepairAction], rebuilder: Rebuilder | None
) -> None:
    from repro.errors import RegistryError
    from repro.integrity.walkers import _registry_store_dirs
    from repro.registry.manifest import (
        MANIFEST_NAME,
        Manifest,
        read_manifest,
        shard_of,
        write_manifest,
    )

    rebuild = [a for a in actions if a.action == "rebuild-manifest"]
    if rebuild:
        manifest_path = root / MANIFEST_NAME
        quarantine = root / "quarantine"
        quarantine.mkdir(parents=True, exist_ok=True)
        if manifest_path.exists():
            shutil.copy2(manifest_path, quarantine / (MANIFEST_NAME + ".corrupt"))
        entries = {}
        pairs = []
        for store_dir in _registry_store_dirs(root):
            entry = _store_entry(root, store_dir)
            if entry is not None and entry.company not in entries:
                entries[entry.company] = entry
                pairs.append((entry.company, entry.shard))
        num_shards = _consistent_num_shards(pairs)
        write_manifest(root, Manifest(entries=entries, num_shards=num_shards))
        for action in rebuild:
            action.status = "applied"
            action.result = (
                f"rebuilt with {len(entries)} companies over "
                f"{num_shards} shards (damaged index kept in quarantine/)"
            )

    try:
        manifest = read_manifest(root)
    except RegistryError as exc:
        for action in actions:
            if action.status == "planned":
                action.status = "failed"
                action.result = f"manifest still unreadable: {exc}"
        return

    dirty = False
    for action in actions:
        if action.status != "planned":
            continue
        if action.action == "drop-entry":
            entry = manifest.entries.get(action.subject)
            if entry is None:
                action.status = "skipped"
                action.result = "entry already gone"
                continue
            quarantine = root / "quarantine"
            quarantine.mkdir(parents=True, exist_ok=True)
            from repro.store.atomic import atomic_write_json

            atomic_write_json(
                quarantine / f"dropped-entry-{action.subject}.json",
                {
                    "reason": "store directory missing; entry dropped by "
                    "integrity repair",
                    "entry": entry.as_dict(),
                },
            )
            del manifest.entries[action.subject]
            dirty = True
            action.status = "applied"
            action.result = "entry dropped; provenance in quarantine/"
        elif action.action == "adopt-store":
            entry = _store_entry(root, Path(action.path))
            if entry is None:
                action.status = "failed"
                action.result = "orphan store has no valid snapshot to adopt"
                continue
            existing = manifest.entries.get(entry.company)
            if existing is not None and existing.store_dir != entry.store_dir:
                action.status = "failed"
                action.result = (
                    f"company {entry.company!r} already registered at "
                    f"{existing.store_dir}; orphan left for the operator"
                )
                continue
            manifest.entries[entry.company] = entry
            dirty = True
            action.status = "applied"
            action.result = f"adopted as {entry.company!r}"
        elif action.action == "rewrite-entry":
            entry = manifest.entries.get(action.subject)
            if entry is None:
                action.status = "skipped"
                action.result = "entry no longer present"
                continue
            shard = shard_of(entry.company, manifest.num_shards)
            from dataclasses import replace

            manifest.entries[action.subject] = replace(entry, shard=shard)
            dirty = True
            action.status = "applied"
            action.result = f"shard recomputed to {shard}"
    if dirty:
        write_manifest(root, manifest)


def _apply_log(
    root: Path, actions: list[RepairAction], rebuilder: Rebuilder | None
) -> None:
    from repro.integrity.walkers import log_schema
    from repro.store.log import compact, corrupt_path, repair_tail

    for action in actions:
        log = Path(action.path)
        if action.action == "truncate-tail":
            action.result = (
                "torn tail truncated" if repair_tail(log) else "tail already clean"
            )
        elif action.action == "quarantine-journal":
            os.replace(log, corrupt_path(log))
            action.result = f"moved to {corrupt_path(log).name}"
        else:
            kept, dropped = compact(log, log_schema(action.family))
            action.result = (
                f"kept {kept} trusted lines, dropped {dropped} (damaged "
                f"original kept as {corrupt_path(log).name})"
            )
        action.status = "applied"


def _apply_certs(
    root: Path, actions: list[RepairAction], rebuilder: Rebuilder | None
) -> None:
    from repro.store.atomic import atomic_write_json

    damaged_root = root / "damaged"
    for action in actions:
        source = Path(action.path)
        if not source.is_dir():
            action.status = "skipped"
            action.result = "evidence directory already gone"
            continue
        damaged_root.mkdir(parents=True, exist_ok=True)
        destination = damaged_root / source.name
        if destination.exists():
            shutil.rmtree(destination, ignore_errors=True)
        os.replace(source, destination)
        atomic_write_json(
            destination / "provenance.json",
            {
                "reason": action.detail,
                "moved_from": str(source),
                "moved_by": "integrity repair",
            },
        )
        action.status = "applied"
        action.result = f"moved to {destination}"


_APPLIERS = {
    "store": _apply_store,
    "registry": _apply_registry,
    "checkpoint": _apply_log,
    "cassette": _apply_log,
    "certs": _apply_certs,
}
