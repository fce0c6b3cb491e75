"""Crash-safe persistence for :class:`~repro.core.pipeline.PolicyModel`.

The paper's Phase 2 leans on content hashing to make policy models
*incrementally maintainable*; this package makes them *durably
recoverable*:

* :mod:`repro.store.atomic` — fsync'd write-to-temp-then-rename file
  primitives with named crash-step hooks;
* :mod:`repro.store.log` — the append-only JSONL log format (envelope,
  torn-tail repair, scan, compaction) under checkpoint journals and
  cassettes;
* :mod:`repro.store.serialize` — full round-trip between a
  :class:`~repro.core.pipeline.PolicyModel` and a set of hashable
  artifact payloads;
* :mod:`repro.store.snapshot` — :class:`SnapshotStore`, a versioned
  snapshot directory with a sha256 manifest per snapshot, an atomic
  commit protocol, a write-ahead journal for incremental updates, and
  quarantine-with-fallback recovery for corrupt snapshots;
* :mod:`repro.store.audit` — structural-invariant and
  incremental-vs-rebuild parity auditing with optional auto-heal;
* :mod:`repro.store.faults` — deterministic crash injection for the
  commit protocol (test infrastructure).
"""

from repro.store.atomic import atomic_write_bytes, atomic_write_json, atomic_write_text
from repro.store.audit import (
    AuditFinding,
    AuditReport,
    audit_parity,
    audit_structure,
    heal_model,
)
from repro.store.serialize import MODEL_ARTIFACTS, model_artifacts, model_from_artifacts
from repro.store.snapshot import (
    LoadResult,
    QuarantineReport,
    SnapshotInfo,
    SnapshotStore,
)

__all__ = [
    "SnapshotStore",
    "SnapshotInfo",
    "LoadResult",
    "QuarantineReport",
    "AuditReport",
    "AuditFinding",
    "audit_structure",
    "audit_parity",
    "heal_model",
    "MODEL_ARTIFACTS",
    "model_artifacts",
    "model_from_artifacts",
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_write_json",
]
