"""Heartbeat watchdog: detect and report stalled batch workers.

Every job worker owns a :class:`WorkerHeartbeat`; it beats when a query
starts (and cooperatively mid-query, if the query function chooses to).
The :class:`Watchdog` scans the heartbeat table and flags any worker whose
in-flight query has gone ``stall_after`` seconds without a beat — the hung
state a wedged backend, a pathological solver input, or a deadlocked
substrate produces.

Time is injected: production uses :class:`MonotonicClock`, tests drive a
fake clock and call the scan directly, so stall detection is exercised
deterministically with zero real waiting.  The watchdog itself never kills
anything — it *reports*; the :class:`~repro.jobs.runner.JobRunner`
converts the report into a cooperative cancel + worker replacement under
its own lock (see :class:`StallReport` for what surfaces to the caller).

Replacement is cooperative: a cancelled worker thread cannot be killed.
It runs its solve until the solver's wall-clock budget trips, and the
cancel flag guarantees its late result is discarded instead of committed.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Protocol


class Clock(Protocol):
    """Injectable time source (monotonic seconds)."""

    def now(self) -> float: ...

    def sleep(self, seconds: float) -> None: ...


class MonotonicClock:
    """The real thing: ``time.monotonic`` + ``time.sleep``."""

    def now(self) -> float:
        import time

        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        import time

        time.sleep(seconds)


@dataclass(slots=True)
class StallReport:
    """Structured account of one watchdog intervention.

    Attached to the UNKNOWN outcome that takes the hung query's slot, so
    a stall is never a silent hang *and* never a silent verdict — callers
    see which query, which worker, how long it sat, and that the worker
    was replaced.
    """

    index: int
    question: str
    worker_id: int
    stage: str
    waited_seconds: float
    stall_after: float
    replaced: bool = True

    def summary(self) -> str:
        return (
            f"worker {self.worker_id} stalled in {self.stage!r} after "
            f"{self.waited_seconds:.3f}s (threshold {self.stall_after:.3f}s); "
            f"worker {'replaced' if self.replaced else 'not replaced'}"
        )

    def as_dict(self) -> dict[str, object]:
        return {
            "index": self.index,
            "question": self.question,
            "worker_id": self.worker_id,
            "stage": self.stage,
            "waited_seconds": round(self.waited_seconds, 6),
            "stall_after": round(self.stall_after, 6),
            "replaced": self.replaced,
        }


class WorkerHeartbeat:
    """Mutable per-worker liveness record.

    All mutation happens under the owning runner's lock; the fields are
    plain attributes so the watchdog scan is a cheap read pass.
    """

    __slots__ = (
        "worker_id",
        "index",
        "question",
        "stage",
        "last_beat",
        "cancelled",
    )

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.index: int | None = None  # None = idle
        self.question: str | None = None
        self.stage = "idle"
        self.last_beat = 0.0
        self.cancelled = threading.Event()

    @property
    def busy(self) -> bool:
        return self.index is not None

    def begin(self, index: int, question: str, now: float) -> None:
        self.index = index
        self.question = question
        self.stage = "query"
        self.last_beat = now

    def beat(self, stage: str, now: float) -> None:
        self.stage = stage
        self.last_beat = now

    def finish(self) -> None:
        self.index = None
        self.question = None
        self.stage = "idle"


class Watchdog:
    """Scan heartbeats for workers that stopped beating mid-query.

    ``scan`` is the pure detection step (called under the runner's lock
    with the current heartbeat table); :meth:`run` is the production
    thread loop that calls a runner-supplied scan callback every
    ``interval`` seconds until stopped.
    """

    def __init__(
        self,
        *,
        stall_after: float,
        clock: Clock | None = None,
        interval: float | None = None,
    ) -> None:
        if stall_after <= 0:
            raise ValueError("stall_after must be > 0")
        self.stall_after = stall_after
        self.clock: Clock = clock if clock is not None else MonotonicClock()
        # A scan four times per threshold keeps detection latency within
        # 25% of stall_after without busy-waiting.
        self.interval = (
            interval if interval is not None else max(0.01, stall_after / 4.0)
        )
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def scan(
        self, heartbeats: list[WorkerHeartbeat], *, now: float | None = None
    ) -> list[WorkerHeartbeat]:
        """The workers whose in-flight query exceeded ``stall_after``."""
        if now is None:
            now = self.clock.now()
        return [
            hb
            for hb in heartbeats
            if hb.busy
            and not hb.cancelled.is_set()
            and now - hb.last_beat > self.stall_after
        ]

    def start(self, scan_callback: Callable[[], None]) -> None:
        """Run ``scan_callback`` every ``interval`` seconds in a thread."""
        self._stop.clear()

        def loop() -> None:
            while not self._stop.is_set():
                scan_callback()
                # Event.wait, not clock.sleep: stop() must interrupt the
                # pause immediately even with a coarse real interval.
                self._stop.wait(self.interval)

        self._thread = threading.Thread(
            target=loop, name="job-watchdog", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
