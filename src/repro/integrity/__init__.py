"""Fleet-wide integrity: unified fsck, repair planning, and scrubbing.

Five durable formats carry every verdict this system serves — snapshot
stores, the registry manifest, checkpoint journals, cassettes, and
certification quarantines — and each grew its own local corruption
handling.  This package is the system-wide integrity authority over all
of them:

* :mod:`repro.integrity.findings` — the shared vocabulary: a typed
  :class:`Finding` with a severity ladder, aggregated into one
  :class:`IntegrityReport`;
* :mod:`repro.integrity.walkers` — per-format artifact walkers (one for
  both append-only logs) that re-verify every durable byte and emit
  findings;
* :mod:`repro.integrity.fsck` — layout discovery + one unified scan
  (the engine behind ``repro-policy fsck``);
* :mod:`repro.integrity.repair` — the deterministic repair planner:
  dry-run :class:`RepairPlan`, then :meth:`RepairPlan.apply`;
* :mod:`repro.integrity.scrub` — the rate-limited incremental
  background scrubber the serving daemon runs;
* :mod:`repro.integrity.faults` — deterministic bit-rot injection
  seams powering the corruption-matrix tests.
"""

from repro.integrity.findings import (
    FAMILIES,
    Finding,
    IntegrityReport,
    Severity,
    findings_from_quarantine,
)
from repro.integrity.fsck import classify_root, discover_targets, run_fsck
from repro.integrity.repair import RepairAction, RepairPlan, plan_repairs
from repro.integrity.scrub import BackgroundScrubber
from repro.integrity.walkers import (
    walk_cert_quarantine,
    walk_log,
    walk_registry,
    walk_store,
)

__all__ = [
    "FAMILIES",
    "Finding",
    "IntegrityReport",
    "Severity",
    "findings_from_quarantine",
    "classify_root",
    "discover_targets",
    "run_fsck",
    "RepairAction",
    "RepairPlan",
    "plan_repairs",
    "BackgroundScrubber",
    "walk_cert_quarantine",
    "walk_log",
    "walk_registry",
    "walk_store",
]
