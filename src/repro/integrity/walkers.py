"""Per-format artifact walkers: re-verify every durable byte.

One walker per artifact family (checkpoint journals and cassettes, both
append-only logs, share :func:`walk_log`), each returning an
:class:`~repro.integrity.findings.IntegrityReport` fragment that
:func:`~repro.integrity.fsck.run_fsck` (or the background scrubber)
merges.  Walkers only *observe* — they never move, truncate, or rewrite
anything; that is the repair planner's job — so a scan is always safe to
run against a live store.

Detection reuses the formats' own verification primitives (the store's
``verify_snapshot``, the shared log scan of :mod:`repro.store.log` with
each log family's schema) rather than re-implementing them: what the
loader would refuse to serve is exactly what the walker reports.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.integrity.findings import (
    KIND_CROSS_REF,
    KIND_DUPLICATE,
    KIND_FORMAT,
    KIND_HASH_MISMATCH,
    KIND_MISSING_REFERENT,
    KIND_ORPHAN,
    KIND_PENDING_JOURNAL,
    KIND_TORN_TAIL,
    Finding,
    IntegrityReport,
    Severity,
)

# ----------------------------------------------------------------------
# Snapshot stores
# ----------------------------------------------------------------------


def _classify_store_failure(failure: str) -> str:
    """Map one ``verify_snapshot`` failure string onto a finding kind."""
    if "sha256 mismatch" in failure:
        return KIND_HASH_MISMATCH
    if "unreadable" in failure or "missing" in failure:
        return KIND_MISSING_REFERENT
    return KIND_FORMAT


def walk_store(
    root: str | Path, *, expected_company: str | None = None
) -> IntegrityReport:
    """Hash-verify one snapshot store: manifest, artifacts, pointers.

    ``expected_company`` enables the cross-reference check a registry
    walk needs: the published snapshot's manifest must name the company
    the registry routed here (catching swapped store directories, which
    every per-file hash is blind to).
    """
    from repro.store.snapshot import (
        CURRENT_NAME,
        JOURNAL_NAME,
        MANIFEST_NAME,
        SnapshotStore,
        _SNAP_PREFIX,
        _TMP_PREFIX,
    )

    root = Path(root)
    report = IntegrityReport(root=str(root))
    report.count("stores")
    store = SnapshotStore(root)
    store_root = str(root)

    current = store.current_id()
    snapshot_ids = store.snapshot_ids()

    if (root / JOURNAL_NAME).exists():
        report.add(
            Finding(
                family="store",
                kind=KIND_PENDING_JOURNAL,
                severity=Severity.WARN,
                path=str(root / JOURNAL_NAME),
                root=store_root,
                detail="write-ahead update journal never resolved "
                "(crash mid-update); recovery rolls forward or back "
                "deterministically",
                repairable=True,
            )
        )

    if store.snapshots_dir.is_dir():
        for entry in sorted(store.snapshots_dir.iterdir(), key=lambda e: e.name):
            if entry.name.startswith(_TMP_PREFIX):
                report.add(
                    Finding(
                        family="store",
                        kind=KIND_ORPHAN,
                        severity=Severity.INFO,
                        path=str(entry),
                        root=store_root,
                        detail="staging directory left by an interrupted "
                        "commit; garbage-collected on repair",
                        repairable=True,
                    )
                )
            elif not entry.name.startswith(_SNAP_PREFIX):
                report.add(
                    Finding(
                        family="store",
                        kind=KIND_ORPHAN,
                        severity=Severity.INFO,
                        path=str(entry),
                        root=store_root,
                        detail="unexpected entry in the snapshots "
                        "directory (not a snapshot, not staging)",
                        repairable=False,
                    )
                )

    if store.quarantine_dir.is_dir():
        report.count(
            "quarantined",
            sum(1 for e in store.quarantine_dir.iterdir() if e.is_dir()),
        )

    # Verify every committed snapshot; validity drives severity below.
    failures_by_id: dict[str, list[str]] = {}
    cross_ref_ids: set[str] = set()
    for snapshot_id in snapshot_ids:
        report.count("snapshots")
        failures = store.verify_snapshot(snapshot_id)
        failures_by_id[snapshot_id] = failures
        if not failures:
            manifest = store.manifest(snapshot_id)
            artifacts = manifest.get("artifacts")
            report.count("manifests")
            report.count(
                "artifacts", len(artifacts) if isinstance(artifacts, dict) else 0
            )
            declared = manifest.get("snapshot_id")
            if declared != snapshot_id:
                # A swapped or copied snapshot directory: internally
                # hash-valid, so verify_snapshot cannot see it — only the
                # identity cross-reference can.
                failures_by_id[snapshot_id] = [
                    f"manifest names {declared!r}, directory is {snapshot_id}"
                ]
                cross_ref_ids.add(snapshot_id)

    valid_ids = [sid for sid, fails in failures_by_id.items() if not fails]
    any_valid = bool(valid_ids)

    for snapshot_id in snapshot_ids:
        failures = failures_by_id[snapshot_id]
        if not failures:
            continue
        if snapshot_id in cross_ref_ids:
            report.add(
                Finding(
                    family="store",
                    kind=KIND_CROSS_REF,
                    severity=Severity.ERROR if any_valid else Severity.CRITICAL,
                    path=str(store.snapshots_dir / snapshot_id),
                    root=store_root,
                    detail=failures[0] + " (swapped or copied snapshot "
                    "directory)",
                    subject=snapshot_id,
                    repairable=any_valid,
                )
            )
            continue
        is_current = snapshot_id == current
        if not any_valid:
            severity = Severity.CRITICAL
        elif is_current:
            severity = Severity.ERROR
        else:
            severity = Severity.WARN
        for failure in failures:
            report.add(
                Finding(
                    family="store",
                    kind=_classify_store_failure(failure),
                    severity=severity,
                    path=str(store.snapshots_dir / snapshot_id),
                    root=store_root,
                    detail=failure
                    + (
                        ""
                        if any_valid
                        else "; no hash-valid snapshot remains in this store"
                    ),
                    subject=snapshot_id,
                    repairable=any_valid,
                )
            )

    # Pointer checks: CURRENT must reference a committed snapshot.
    if current is not None and current not in snapshot_ids:
        report.add(
            Finding(
                family="store",
                kind=KIND_MISSING_REFERENT,
                severity=Severity.ERROR if any_valid else Severity.CRITICAL,
                path=str(root / CURRENT_NAME),
                root=store_root,
                detail=f"CURRENT names {current!r} but no such snapshot "
                "is committed",
                subject=current,
                repairable=any_valid,
            )
        )
    elif current is None and snapshot_ids:
        report.add(
            Finding(
                family="store",
                kind=KIND_CROSS_REF,
                severity=Severity.WARN,
                path=str(root / CURRENT_NAME),
                root=store_root,
                detail="published pointer missing while snapshots exist; "
                "load republishes the newest valid snapshot",
                repairable=any_valid,
            )
        )

    if expected_company is not None and current in failures_by_id and not (
        failures_by_id.get(current)
    ):
        manifest = store.manifest(current)
        company = manifest.get("company")
        if company != expected_company:
            report.add(
                Finding(
                    family="store",
                    kind=KIND_CROSS_REF,
                    severity=Severity.ERROR,
                    path=str(store.snapshots_dir / current / MANIFEST_NAME),
                    root=store_root,
                    detail=f"store serves company {company!r} but the "
                    f"registry routes {expected_company!r} here "
                    "(swapped store directories)",
                    subject=expected_company,
                    repairable=False,
                )
            )
    return report


# ----------------------------------------------------------------------
# Registry manifests
# ----------------------------------------------------------------------


def _looks_like_store(directory: Path) -> bool:
    from repro.store.snapshot import CURRENT_NAME

    return (directory / CURRENT_NAME).exists() or (
        directory / "snapshots"
    ).is_dir()


def _registry_store_dirs(root: Path) -> list[Path]:
    """Every directory under ``shards/`` that looks like a snapshot store."""
    shards = root / "shards"
    if not shards.is_dir():
        return []
    found = []
    for shard_dir in sorted(shards.iterdir()):
        if not shard_dir.is_dir():
            continue
        for store_dir in sorted(shard_dir.iterdir()):
            if store_dir.is_dir() and _looks_like_store(store_dir):
                found.append(store_dir)
    return found


def walk_registry(root: str | Path) -> IntegrityReport:
    """Cross-verify ``REGISTRY.json`` against the shard tree, then walk
    every referenced store (and report unreferenced ones as orphans)."""
    from repro.errors import RegistryError
    from repro.registry.manifest import MANIFEST_NAME, read_manifest, shard_of

    root = Path(root)
    report = IntegrityReport(root=str(root))
    registry_root = str(root)
    report.count("manifests")

    try:
        manifest = read_manifest(root)
    except RegistryError as exc:
        report.add(
            Finding(
                family="registry",
                kind=KIND_FORMAT,
                severity=Severity.CRITICAL,
                path=str(root / MANIFEST_NAME),
                root=registry_root,
                detail=f"manifest unreadable: {exc}; every company lookup "
                "fails until it is rebuilt from the surviving stores",
                repairable=True,
            )
        )
        # The index is gone but the stores are not: verify them anyway so
        # the rebuild plan knows what survives.
        for store_dir in _registry_store_dirs(root):
            report.merge(walk_store(store_dir))
        return report

    referenced: set[Path] = set()
    for company in manifest.companies():
        entry = manifest.entries[company]
        store_dir = root / entry.store_dir
        referenced.add(store_dir.resolve())
        expected_shard = shard_of(company, manifest.num_shards)
        if entry.shard != expected_shard:
            report.add(
                Finding(
                    family="registry",
                    kind=KIND_CROSS_REF,
                    severity=Severity.WARN,
                    path=str(root / MANIFEST_NAME),
                    root=registry_root,
                    detail=f"entry for {company!r} records shard "
                    f"{entry.shard!r} but sha256 assignment says "
                    f"{expected_shard!r}",
                    subject=company,
                    repairable=True,
                )
            )
        if not store_dir.is_dir():
            report.add(
                Finding(
                    family="registry",
                    kind=KIND_MISSING_REFERENT,
                    severity=Severity.ERROR,
                    path=str(store_dir),
                    root=registry_root,
                    detail=f"manifest entry for {company!r} points at a "
                    "store directory that does not exist",
                    subject=company,
                    repairable=True,  # drop + quarantine the entry's provenance
                )
            )
            continue
        sub = walk_store(store_dir, expected_company=company)
        report.merge(sub)

    for store_dir in _registry_store_dirs(root):
        if store_dir.resolve() in referenced:
            continue
        report.add(
            Finding(
                family="registry",
                kind=KIND_ORPHAN,
                severity=Severity.WARN,
                path=str(store_dir),
                root=registry_root,
                detail="store directory not referenced by any manifest "
                "entry (crash between store commit and manifest write); "
                "adoptable if its snapshots verify",
                repairable=True,
            )
        )

    quarantine = root / "quarantine"
    if quarantine.is_dir():
        report.count(
            "quarantined", sum(1 for _ in quarantine.iterdir())
        )
    return report


# ----------------------------------------------------------------------
# Append-only logs: checkpoint journals and cassettes
# ----------------------------------------------------------------------

#: Per log family: the scan counters for logs walked and lines scanned,
#: and whether a duplicate key is a finding.  A cassette's duplicates are
#: two recorders racing on one prompt, so there is nothing to repair.
_LOG_FAMILIES = {
    "checkpoint": ("journals", "journal_records", True),
    "cassette": ("cassettes", "cassette_lines", False),
}


def log_schema(family: str):
    """The :class:`~repro.store.log.LogSchema` of one log family."""
    if family == "checkpoint":
        from repro.jobs.checkpoint import JOURNAL

        return JOURNAL
    from repro.providers.cassette import CASSETTE

    return CASSETTE


def _refused(line, prefix: bool) -> tuple[str, Severity, str]:
    """``(kind, severity, consequence)`` of one line a log refused."""
    if line.torn:
        return (
            KIND_TORN_TAIL,
            Severity.WARN,
            "final line cut mid-append by a crash; truncating to the last "
            "complete line restores the log",
        )
    if prefix:
        return (
            KIND_TORN_TAIL if line.last else KIND_HASH_MISMATCH,
            Severity.ERROR,
            "the trusted prefix ends here and every later record is "
            "re-executed on resume",
        )
    from repro.providers.cassette import DIGEST_MISMATCH
    from repro.store.log import CHECKSUM_MISMATCH

    kind = {
        CHECKSUM_MISMATCH: KIND_HASH_MISMATCH,
        DIGEST_MISMATCH: KIND_CROSS_REF,
    }.get(line.reason, KIND_FORMAT)
    return kind, Severity.WARN, "replay skips it (the log degrades, it never crashes)"


def walk_log(path: str | Path, family: str) -> IntegrityReport:
    """Scan one append-only log: a checkpoint journal (its directory or
    the file itself) or a cassette.

    The readers only say what they trust; the walker reports every line
    they refuse, so it tells a torn *tail* (repairable truncation) from
    mid-file damage, and it reports duplicates the readers silently drop.
    """
    from repro.jobs.checkpoint import JOURNAL_NAME
    from repro.store.log import read_log

    path = Path(path)
    log_path = path / JOURNAL_NAME if path.is_dir() else path
    root = str(path)
    logs, lines, report_duplicates = _LOG_FAMILIES[family]
    schema = log_schema(family)
    report = IntegrityReport(root=root)
    report.count(logs)
    if not log_path.exists():
        return report

    log = read_log(log_path, schema)
    report.count(lines, len(log.lines))
    for line in log.lines:
        if line.reason is not None:
            kind, severity, consequence = _refused(line, schema.prefix)
            detail = f"line {line.number}: {line.reason}; {consequence}"
        elif line.duplicate and report_duplicates:
            kind, severity = KIND_DUPLICATE, Severity.WARN
            detail = (
                f"line {line.number}: replayed append of record "
                f"{line.key!r}; the first occurrence wins"
            )
        else:
            continue
        report.add(
            Finding(
                family=family,
                kind=kind,
                severity=severity,
                path=str(log_path),
                root=root,
                detail=detail,
                subject=f"line {line.number}",
                repairable=True,
            )
        )

    keys = {line.key for line in log.lines if line.record is not None}
    if schema.required is not None and keys and schema.required not in keys:
        report.add(
            Finding(
                family=family,
                kind=KIND_CROSS_REF,
                severity=Severity.ERROR,
                path=str(log_path),
                root=root,
                detail=f"log carries records but no {schema.required}: "
                "nothing binds them to a question suite or model identity, "
                "so no resume may trust them",
                repairable=False,
            )
        )
    return report


# ----------------------------------------------------------------------
# Certification quarantines
# ----------------------------------------------------------------------


def walk_cert_quarantine(root: str | Path) -> IntegrityReport:
    """Verify a certification-quarantine directory: every ``cert-*`` dir
    must hold the formula and a report whose digest matches its bytes."""
    import hashlib

    root = Path(root)
    report = IntegrityReport(root=str(root))
    quarantine_root = str(root)
    if not root.is_dir():
        return report

    damaged_dir = root / "damaged"
    if damaged_dir.is_dir():
        report.count("quarantined", sum(1 for _ in damaged_dir.iterdir()))

    for entry in sorted(root.iterdir()):
        if not entry.is_dir() or not entry.name.startswith("cert-"):
            continue
        report.count("cert_dirs")
        formula = entry / "formula.smt2"
        cert_report = entry / "report.json"
        missing = [p.name for p in (formula, cert_report) if not p.exists()]
        if missing:
            report.add(
                Finding(
                    family="certs",
                    kind=KIND_MISSING_REFERENT,
                    severity=Severity.ERROR,
                    path=str(entry),
                    root=quarantine_root,
                    detail=f"quarantined certificate evidence incomplete: "
                    f"missing {', '.join(missing)}",
                    subject=entry.name,
                    repairable=False,
                )
            )
            continue
        try:
            payload = json.loads(cert_report.read_text("utf-8"))
            declared = payload.get("script_sha256")
        except (OSError, json.JSONDecodeError) as exc:
            report.add(
                Finding(
                    family="certs",
                    kind=KIND_FORMAT,
                    severity=Severity.ERROR,
                    path=str(cert_report),
                    root=quarantine_root,
                    detail=f"report.json unreadable: {exc}",
                    subject=entry.name,
                    repairable=False,
                )
            )
            continue
        actual = hashlib.sha256(formula.read_bytes()).hexdigest()
        if not isinstance(declared, str) or actual != declared:
            report.add(
                Finding(
                    family="certs",
                    kind=KIND_HASH_MISMATCH,
                    severity=Severity.ERROR,
                    path=str(formula),
                    root=quarantine_root,
                    detail="formula bytes do not hash to the report's "
                    "script_sha256; the quarantined evidence cannot be "
                    "trusted for triage",
                    subject=entry.name,
                    repairable=False,
                )
            )
        elif f"cert-{declared[:12]}" != entry.name:
            report.add(
                Finding(
                    family="certs",
                    kind=KIND_CROSS_REF,
                    severity=Severity.ERROR,
                    path=str(entry),
                    root=quarantine_root,
                    detail=f"directory name {entry.name} disagrees with "
                    f"the certified digest cert-{declared[:12]}",
                    subject=entry.name,
                    repairable=False,
                )
            )
    return report
