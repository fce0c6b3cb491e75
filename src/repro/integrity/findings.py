"""The shared integrity vocabulary: typed findings and one report.

Every walker, the repair planner, the background scrubber, and the CLI
``fsck`` command all speak in :class:`Finding`s — one damage observation
against one artifact, classified by *kind* (what is wrong) and *severity*
(what it costs).  This module is deliberately dependency-free (stdlib
only) so any layer — the store, the registry, the pipeline — can emit or
convert findings without import cycles.

Severity ladder (ascending):

* :attr:`Severity.INFO` — cosmetic or garbage-collectable leftovers
  (orphan staging dirs); no served state is affected.
* :attr:`Severity.WARN` — damage the format's own redundancy absorbs
  (a torn journal tail, a corrupt non-current snapshot, a skipped
  cassette line); repair restores the clean state, verdicts unchanged.
* :attr:`Severity.ERROR` — damage that changes or blocks what is served
  (the published snapshot corrupt, a manifest entry pointing nowhere);
  repair isolates it loudly, possibly losing data to quarantine.
* :attr:`Severity.CRITICAL` — the integrity authority itself is damaged
  (an unreadable ``REGISTRY.json``, a store with no valid snapshot);
  nothing below it can be trusted until repaired or quarantined.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

#: The five durable artifact families the integrity subsystem covers.
FAMILIES = ("store", "registry", "checkpoint", "cassette", "certs")

# Finding kinds: what, structurally, is wrong with the artifact.
KIND_HASH_MISMATCH = "hash-mismatch"  # bytes disagree with their recorded digest
KIND_TORN_TAIL = "torn-tail"  # append-only log cut mid-write by a crash
KIND_MISSING_REFERENT = "missing-referent"  # an index points at nothing
KIND_ORPHAN = "orphan-artifact"  # bytes on disk no index references
KIND_CROSS_REF = "cross-ref-inconsistency"  # two sources of truth disagree
KIND_FORMAT = "format-error"  # unparsable or structurally invalid payload
KIND_DUPLICATE = "duplicate-record"  # replayed append (incl. duplicate header)
KIND_PENDING_JOURNAL = "pending-journal"  # write-ahead record never resolved

KINDS = (
    KIND_HASH_MISMATCH,
    KIND_TORN_TAIL,
    KIND_MISSING_REFERENT,
    KIND_ORPHAN,
    KIND_CROSS_REF,
    KIND_FORMAT,
    KIND_DUPLICATE,
    KIND_PENDING_JOURNAL,
)


class Severity(enum.IntEnum):
    """Ascending damage ladder; comparisons follow integer order."""

    INFO = 10
    WARN = 20
    ERROR = 30
    CRITICAL = 40

    def __str__(self) -> str:  # "warn", not "Severity.WARN"
        return self.name.lower()


@dataclass(slots=True)
class Finding:
    """One damage observation against one artifact.

    ``root`` is the artifact-family root the finding belongs to (the
    snapshot-store directory, the registry root, the checkpoint
    directory, the cassette file, the cert-quarantine directory): the
    repair planner groups findings by ``(family, root)`` so each root is
    repaired exactly once, in deterministic order.  ``path`` is the
    damaged artifact itself; ``subject`` names the logical victim (a
    snapshot id, a company, a 1-based line number) when one exists.
    ``repairable`` means repair can *restore* behaviour (byte-identical
    verdicts); unrepairable damage is still acted on — quarantined with
    provenance — but data was lost and the operator must know.
    """

    family: str
    kind: str
    severity: Severity
    path: str
    root: str
    detail: str
    subject: str | None = None
    repairable: bool = False

    def summary(self) -> str:
        subject = f" [{self.subject}]" if self.subject else ""
        fixable = "repairable" if self.repairable else "UNREPAIRABLE"
        return (
            f"{self.severity}: {self.family}/{self.kind} at {self.path}"
            f"{subject}: {self.detail} ({fixable})"
        )

    def as_dict(self) -> dict[str, object]:
        return {
            "family": self.family,
            "kind": self.kind,
            "severity": str(self.severity),
            "path": self.path,
            "root": self.root,
            "detail": self.detail,
            "subject": self.subject,
            "repairable": self.repairable,
        }


def findings_from_quarantine(reports, root: str | object) -> list[Finding]:
    """Convert snapshot-store :class:`~repro.store.snapshot.QuarantineReport`
    records into typed findings (the unified surfacing path: the store and
    the registry shard loader both report corruption through this shape).
    """
    findings: list[Finding] = []
    for report in reports:
        detail = report.reason
        if report.failures:
            detail += ": " + "; ".join(report.failures)
        findings.append(
            Finding(
                family="store",
                kind=KIND_HASH_MISMATCH,
                severity=Severity.ERROR,
                path=report.quarantined_to or str(root),
                root=str(root),
                detail=detail,
                subject=report.snapshot_id,
                repairable=False,  # already quarantined: evidence, not a plan
            )
        )
    return findings


#: Scan-volume counters an :class:`IntegrityReport` tracks alongside its
#: findings — "0 findings over 0 artifacts" must read differently from
#: "0 findings over 4,000 hashed artifacts".
SCAN_COUNTERS = (
    "stores",
    "snapshots",
    "artifacts",
    "manifests",
    "journals",
    "journal_records",
    "cassettes",
    "cassette_lines",
    "cert_dirs",
    "quarantined",  # already-quarantined evidence dirs seen (not findings)
)


@dataclass(slots=True)
class IntegrityReport:
    """Every finding from one scan (or one accumulating scrub pass)."""

    root: str
    findings: list[Finding] = field(default_factory=list)
    scanned: dict[str, int] = field(
        default_factory=lambda: {name: 0 for name in SCAN_COUNTERS}
    )
    seconds: float = 0.0

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def max_severity(self) -> Severity | None:
        if not self.findings:
            return None
        return max(finding.severity for finding in self.findings)

    @property
    def repairable(self) -> list[Finding]:
        return [f for f in self.findings if f.repairable]

    @property
    def unrepairable(self) -> list[Finding]:
        return [f for f in self.findings if not f.repairable]

    def count(self, name: str, n: int = 1) -> None:
        self.scanned[name] = self.scanned.get(name, 0) + n

    def add(self, finding: Finding) -> None:
        self.findings.append(finding)

    def by_severity(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for finding in self.findings:
            key = str(finding.severity)
            out[key] = out.get(key, 0) + 1
        return out

    def by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for finding in self.findings:
            out[finding.kind] = out.get(finding.kind, 0) + 1
        return out

    def merge(self, other: "IntegrityReport") -> None:
        """Fold a sub-scan in (findings append, counters add)."""
        self.findings.extend(other.findings)
        for name, value in other.scanned.items():
            self.scanned[name] = self.scanned.get(name, 0) + value
        self.seconds += other.seconds

    def summary(self) -> str:
        scanned = ", ".join(
            f"{value} {name}"
            for name, value in self.scanned.items()
            if value
        )
        lines = [
            f"fsck {self.root}: "
            + ("clean" if self.clean else f"{len(self.findings)} findings")
            + (f" ({scanned})" if scanned else "")
        ]
        for finding in sorted(
            self.findings, key=lambda f: (-f.severity, f.family, f.path)
        ):
            lines.append("  " + finding.summary())
        return "\n".join(lines)

    def as_dict(self) -> dict[str, object]:
        return {
            "root": self.root,
            "clean": self.clean,
            "findings": [finding.as_dict() for finding in self.findings],
            "by_severity": self.by_severity(),
            "by_kind": self.by_kind(),
            "scanned": {k: v for k, v in self.scanned.items() if v},
            "seconds": round(self.seconds, 6),
        }
