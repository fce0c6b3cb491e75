"""Rate-limited incremental background scrubbing for a serving fleet.

Bit-rot is only caught when bytes are *read*, and a warm fleet can serve
for days without re-reading a cold shard from disk.
:class:`BackgroundScrubber` closes that window: a daemon thread walks the
registry's stores one snapshot per tick, hash-verifying every artifact
against its manifest, and surfaces damage as typed
:class:`~repro.integrity.findings.Finding`\\ s, counted into the shared
``integrity_findings`` total of :class:`~repro.core.metrics.PipelineMetrics`.
Its own progress (passes, paused ticks, artifacts verified) it keeps
itself and reports through :meth:`BackgroundScrubber.stats`.

Three properties keep it safe to run under live traffic:

* **admission-aware** — a tick with queries in flight (``gate.depth > 0``)
  verifies nothing and re-arms; the scrubber only consumes idle I/O, so
  served tail latency is bounded by one inter-tick interval, not by a
  full-store hash pass;
* **incremental with a persisted cursor** — ``SCRUB_CURSOR.json`` at the
  registry root records ``(company, snapshot position)`` after every
  tick, so a restarted daemon resumes mid-pass instead of re-verifying
  from the top (the oldest-verified shard is never starved by restarts);
* **read-only** — the scrubber *detects* and *reports*; repair stays an
  explicit operator action (``repro-policy fsck --repair``) or the load
  path's own quarantine-and-fall-back healing.

The thread is owned by :class:`~repro.server.daemon.PolicyServer` when
``ServerConfig.scrub_interval`` is set, but :meth:`run_once` is public
and deterministic so tests (and one-shot tools) can drive ticks without
a thread or a clock.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

from repro.integrity.findings import Finding

#: Cursor file persisted at the registry root after every tick.
CURSOR_NAME = "SCRUB_CURSOR.json"

#: Findings kept in memory for ``/stats`` (bounded; oldest dropped).
MAX_RECENT_FINDINGS = 64


class BackgroundScrubber:
    """Incrementally hash-verify every store under a registry root.

    Parameters
    ----------
    root:
        Registry root (the directory holding ``REGISTRY.json``).
    interval:
        Seconds between ticks when driven by :meth:`start`'s thread.
    gate:
        Optional admission gate; a tick observing ``gate.depth > 0``
        pauses instead of verifying (counted in ``paused``).
    metrics / metrics_lock:
        Optional :class:`~repro.core.metrics.PipelineMetrics` whose
        ``integrity_findings`` the scrubber adds its findings to, under
        ``metrics_lock`` (the serving daemon passes its own).
    """

    def __init__(
        self,
        root: str | Path,
        *,
        interval: float = 5.0,
        gate=None,
        metrics=None,
        metrics_lock: threading.Lock | None = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("scrub interval must be > 0 seconds")
        self.root = Path(root)
        self.interval = interval
        self._gate = gate
        self._metrics = metrics
        self._metrics_lock = metrics_lock or threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._state_lock = threading.Lock()
        # Progress gauges (exposed via stats()).
        self.passes = 0
        self.paused = 0
        self.artifacts_verified = 0
        self.snapshots_verified = 0
        self.findings_total = 0
        self.recent_findings: list[Finding] = []
        self._cursor = self._load_cursor()

    # -- cursor persistence ------------------------------------------------

    @property
    def cursor_path(self) -> Path:
        return self.root / CURSOR_NAME

    def _load_cursor(self) -> dict[str, object]:
        try:
            raw = json.loads(self.cursor_path.read_text("utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return {"company": None, "position": 0}
        if not isinstance(raw, dict):
            return {"company": None, "position": 0}
        company = raw.get("company")
        position = raw.get("position")
        return {
            "company": company if isinstance(company, str) else None,
            "position": position if isinstance(position, int) else 0,
        }

    def _save_cursor(self) -> None:
        # Deliberately NOT the fsync'd atomic writer: a cursor lost to a
        # crash costs one re-verified snapshot, while two fsyncs per tick
        # are a measurable tail-latency tax on a colocated serving
        # daemon.  Rename keeps the file always-parseable; durability is
        # not required.
        tmp = self.cursor_path.with_name(self.cursor_path.name + ".tmp")
        try:
            tmp.write_text(json.dumps(dict(self._cursor)), encoding="utf-8")
            tmp.replace(self.cursor_path)
        except OSError:  # pragma: no cover - read-only root; scrub proceeds
            pass

    # -- one tick ----------------------------------------------------------

    def run_once(self) -> list[Finding]:
        """One scrub tick: verify the next snapshot, advance the cursor.

        Returns the findings surfaced by this tick (empty when paused,
        when the registry is empty, or when the verified snapshot is
        clean).  Deterministic given the on-disk state and cursor.
        """
        if self._gate is not None and self._gate.depth > 0:
            with self._state_lock:
                self.paused += 1
            return []
        from repro.errors import RegistryError
        from repro.registry.manifest import read_manifest
        from repro.store.snapshot import SnapshotStore

        try:
            manifest = read_manifest(self.root)
        except RegistryError as exc:
            finding = Finding(
                family="registry",
                kind="format-error",
                severity=_severity("CRITICAL"),
                path=str(self.root / "REGISTRY.json"),
                root=str(self.root),
                detail=f"scrub could not read the registry manifest: {exc}",
                repairable=True,
            )
            self._record([finding])
            return [finding]
        companies = manifest.companies()
        if not companies:
            return []
        with self._state_lock:
            company = self._cursor["company"]
            if company not in companies:
                company = companies[0]
            index = companies.index(company)
            position = int(self._cursor["position"])

        entry = manifest.entries[company]
        store = SnapshotStore(self.root / entry.store_dir)
        snapshot_ids = store.snapshot_ids()
        findings: list[Finding] = []
        verified_files = 0
        if position >= len(snapshot_ids):
            # This store is done: advance to the next company.
            position = 0
            index += 1
            if index >= len(companies):
                index = 0
                with self._state_lock:
                    self.passes += 1
            with self._state_lock:
                self._cursor = {"company": companies[index], "position": 0}
                self._save_cursor()
            return []
        snapshot_id = snapshot_ids[position]
        failures = store.verify_snapshot(snapshot_id)
        try:
            verified_files = len(store.manifest(snapshot_id).get("artifacts", {}))
        except Exception:  # noqa: BLE001 - manifest itself may be the damage
            verified_files = 0
        if failures:
            from repro.integrity.walkers import _classify_store_failure

            current = store.current_id()
            severity = _severity("ERROR" if snapshot_id == current else "WARN")
            for failure in failures:
                findings.append(
                    Finding(
                        family="store",
                        kind=_classify_store_failure(failure),
                        severity=severity,
                        path=str(store.snapshots_dir / snapshot_id),
                        root=str(store.root),
                        detail=f"scrub: {failure}",
                        subject=snapshot_id,
                        repairable=True,
                    )
                )
        with self._state_lock:
            self.snapshots_verified += 1
            self.artifacts_verified += verified_files
            self._cursor = {"company": company, "position": position + 1}
            self._save_cursor()
        if findings:
            self._record(findings)
        return findings

    def _record(self, findings: list[Finding]) -> None:
        with self._state_lock:
            self.findings_total += len(findings)
            self.recent_findings.extend(findings)
            del self.recent_findings[:-MAX_RECENT_FINDINGS]
        if self._metrics is not None:
            with self._metrics_lock:
                self._metrics.integrity_findings += len(findings)

    # -- thread lifecycle --------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="integrity-scrubber", daemon=True
        )
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.run_once()
            except Exception:  # noqa: BLE001 - scrubbing must never kill serving
                with self._state_lock:
                    self.paused += 1

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=timeout)

    # -- reporting ---------------------------------------------------------

    def stats(self) -> dict[str, object]:
        with self._state_lock:
            return {
                "interval": self.interval,
                "running": self._thread is not None,
                "passes": self.passes,
                "paused_ticks": self.paused,
                "snapshots_verified": self.snapshots_verified,
                "artifacts_verified": self.artifacts_verified,
                "findings": self.findings_total,
                "cursor": dict(self._cursor),
                "recent_findings": [
                    f.as_dict() for f in self.recent_findings[-8:]
                ],
            }


def _severity(name: str):
    from repro.integrity.findings import Severity

    return Severity[name]
