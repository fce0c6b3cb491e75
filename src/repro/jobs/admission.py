"""Bounded admission: the one gate in front of job workers and served requests.

:class:`AdmissionGate` is a pending bound with backpressure below it and
load shedding at a watermark.  Both callers use it:
:class:`~repro.jobs.runner.JobRunner` takes a slot per question before
handing it to a worker thread, and
:class:`~repro.server.daemon.PolicyServer` takes one per request (each
request is its own thread).  The gate holds no items, only the counter
and its invariants:

* ``depth`` counts admissions not yet completed (queued plus running);
* with ``shed_above`` set (validated ``<= max_pending``), a depth at or
  above the watermark **sheds immediately** — the runner records a
  :class:`~repro.jobs.runner.ShedOutcome`, the daemon answers a fast 503
  with a :class:`ShedDecision` body;
* below the watermark but at ``max_pending``, the caller **waits** on the
  condition variable — bounded by its own deadline, if it has one — until
  a slot frees, the deadline expires, or :meth:`~AdmissionGate.stop` is
  called, which is observed immediately.

The condition's default lock is an ``RLock``, so :meth:`~AdmissionGate.stop`
is safe from a signal handler that interrupts the main thread while it
holds the lock inside :meth:`~AdmissionGate.enter`.

Counters (``admitted`` / ``shed`` / ``refused_draining`` /
``refused_deadline`` / ``high_water``) are maintained under the lock;
the callers mirror them into :class:`~repro.core.metrics.PipelineMetrics`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass


def check_bounds(max_pending: int, shed_above: int | None) -> None:
    """Refuse an admission bound the gate cannot honour.

    A shed watermark past the blocking bound would leave a depth band
    ``[max_pending, shed_above)`` that waits instead of shedding.
    """
    if max_pending < 1:
        raise ValueError("max_pending must be >= 1")
    if shed_above is not None and not (1 <= shed_above <= max_pending):
        raise ValueError(
            "shed_above must be in [1, max_pending]: the shed "
            "watermark has to fire before the blocking bound"
        )


@dataclass(slots=True)
class ShedDecision:
    """Why an admission was refused (the body of a served 503)."""

    reason: str  # "shed" | "draining" | "deadline"
    pending_at_admission: int
    shed_above: int | None
    max_pending: int

    def as_dict(self) -> dict[str, object]:
        return {
            "error": self.reason,
            "verdict": "UNKNOWN",
            "shed": {
                "pending_at_admission": self.pending_at_admission,
                "shed_above": self.shed_above,
                "max_pending": self.max_pending,
            },
        }


class AdmissionGate:
    """Bounded in-flight counter with a shed watermark (see module doc)."""

    def __init__(self, max_pending: int, *, shed_above: int | None = None) -> None:
        check_bounds(max_pending, shed_above)
        self.max_pending = max_pending
        self.shed_above = shed_above
        self._cv = threading.Condition()
        self._depth = 0
        self._stopped = False
        self.high_water = 0
        self.admitted = 0
        self.shed = 0
        self.refused_draining = 0
        self.refused_deadline = 0

    @property
    def depth(self) -> int:
        with self._cv:
            return self._depth

    def enter(self, *, deadline_at: float | None = None) -> ShedDecision | None:
        """Try to take a slot; ``None`` on success, the refusal otherwise.

        ``deadline_at`` is an absolute ``time.monotonic()`` instant; a
        caller never waits past its own deadline for a slot (the
        no-stuck-connection contract).  Without one it waits until a slot
        frees or the gate stops.  A gate that has been :meth:`stop`-ped
        refuses immediately with reason ``draining``.
        """
        with self._cv:
            while True:
                if self._stopped:
                    self.refused_draining += 1
                    return ShedDecision(
                        "draining", self._depth, self.shed_above, self.max_pending
                    )
                if (
                    self.shed_above is not None
                    and self._depth >= self.shed_above
                ):
                    self.shed += 1
                    return ShedDecision(
                        "shed", self._depth, self.shed_above, self.max_pending
                    )
                if self._depth < self.max_pending:
                    self._depth += 1
                    self.high_water = max(self.high_water, self._depth)
                    self.admitted += 1
                    return None
                timeout = None
                if deadline_at is not None:
                    timeout = deadline_at - time.monotonic()
                    if timeout <= 0:
                        self.refused_deadline += 1
                        return ShedDecision(
                            "deadline",
                            self._depth,
                            self.shed_above,
                            self.max_pending,
                        )
                self._cv.wait(timeout)

    def exit(self) -> None:
        """Release a slot taken by a successful :meth:`enter`."""
        with self._cv:
            self._depth = max(0, self._depth - 1)
            self._cv.notify_all()

    def stop(self) -> None:
        """Refuse all future admissions (drain); waiting callers are
        woken and refused immediately.  Idempotent."""
        with self._cv:
            self._stopped = True
            self._cv.notify_all()

    def wait_empty(self, timeout: float | None = None) -> bool:
        """Block until every admission has exited (drain barrier)."""
        with self._cv:
            return self._cv.wait_for(lambda: self._depth == 0, timeout)
