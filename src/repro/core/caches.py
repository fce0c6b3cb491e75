"""Per-model memoization caches shared across Phase 3 queries.

A :class:`ModelCaches` instance rides on every
:class:`~repro.core.pipeline.PolicyModel` and lets
the query workers of one :class:`~repro.jobs.JobRunner` batch (and any
other queries on the model) share repeated work between queries:

* **translation** — term -> :class:`~repro.core.translation.TranslationResult`,
  keyed by the lowered term, the search parameters, and the model's
  vocabulary revision;
* **subgraph** — canonical translated-term key (see
  :func:`repro.core.subgraph.subgraph_cache_key`) -> extracted
  :class:`~repro.core.subgraph.Subgraph`;
* **verification** — stable hash of the compiled SMT-LIB script plus the
  solver's work limits (not its wall-clock timeout) ->
  :class:`~repro.core.verify.VerificationResult`.

Translation and subgraph keys embed the model's ``revision`` counter
(:attr:`ModelCaches.REVISIONED`), so their entries can never be served
stale after an incremental update, and the update drops them eagerly.  A
verification key is content-addressed: the script fully determines the
verdict, whatever revision printed it.  So an update keeps that table
(:meth:`ModelCaches.successor` copies it for a rebuilt model), and a
question whose script the edit left unchanged is answered without a
solve.  Lookups and stores are lock-guarded; computations run outside
the lock.  :meth:`get_or_compute` is additionally *single-flight*
per key: concurrent callers of an uncached key elect one leader to compute
while the rest park on an event and reuse its result — a batch of repeated
queries pays for each distinct problem exactly once, no matter how the
worker threads interleave them.  If the leader's computation raises, waiters
are woken to elect a new leader rather than inheriting the failure.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable

_MISS = object()


class _Flight:
    """One in-progress computation: its completion event and result
    (left as the miss sentinel if the leader raised)."""

    __slots__ = ("done", "value")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.value: Any = _MISS


class ModelCaches:
    """Thread-safe translation/subgraph/verification caches for one model."""

    KINDS = ("translation", "subgraph", "verification")
    #: The kinds whose keys embed the model's revision: an update retires them.
    REVISIONED = ("translation", "subgraph")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tables: dict[str, dict[Any, Any]] = {kind: {} for kind in self.KINDS}
        self._inflight: dict[str, dict[Any, _Flight]] = {
            kind: {} for kind in self.KINDS
        }

    def get(self, kind: str, key: Any) -> Any:
        """Cached value for ``key``, or the :data:`MISS` sentinel."""
        with self._lock:
            return self._tables[kind].get(key, _MISS)

    def get_or_compute(
        self,
        kind: str,
        key: Any,
        compute: Callable[[], Any],
        *,
        keep: Callable[[Any], bool] | None = None,
        flight_key: Any = None,
    ) -> tuple[Any, bool]:
        """``(value, computed)`` — single-flight per key.

        Concurrent callers of an uncached key elect one leader; the rest
        wait on its flight and return the leader's result.  ``computed``
        is True only for the caller that actually ran ``compute``; the
        caches keep no hit or miss counts of their own, so that flag is
        what callers count (the pipeline, into
        :class:`~repro.core.metrics.PipelineMetrics`).  A leader whose
        ``compute`` raises clears the flight before re-raising; parked
        waiters wake, re-check the table, and elect a new leader.

        A value that ``keep`` rejects is not stored, but the waiters of
        that flight still receive it rather than recomputing it one
        after another.  ``flight_key`` (default: ``key``) narrows who
        may share a flight: callers with equal ``key`` but different
        ``flight_key`` share stored values, never a computation in
        progress.
        """
        if flight_key is None:
            flight_key = key
        while True:
            with self._lock:
                value = self._tables[kind].get(key, _MISS)
                if value is not _MISS:
                    return value, False
                flight = self._inflight[kind].get(flight_key)
                if flight is None:
                    flight = self._inflight[kind][flight_key] = _Flight()
                    leader = True
                else:
                    leader = False
            if not leader:
                flight.done.wait()
                if flight.value is _MISS:
                    continue  # the leader failed: re-check and re-elect
                return flight.value, False
            try:
                value = compute()
            except BaseException:
                with self._lock:
                    self._inflight[kind].pop(flight_key, None)
                flight.done.set()
                raise
            flight.value = value
            with self._lock:
                if keep is None or keep(value):
                    self._tables[kind][key] = value
                self._inflight[kind].pop(flight_key, None)
            flight.done.set()
            return value, True

    def clear(self, kinds: Iterable[str] = KINDS) -> None:
        """Drop every entry of ``kinds`` (default: every table)."""
        with self._lock:
            for kind in kinds:
                self._tables[kind].clear()

    def successor(self) -> ModelCaches:
        """Fresh caches for a rebuilt model that replaces this one's.

        They start with a copy of every table an update keeps (the kinds
        outside :attr:`REVISIONED`); the two objects share no table, so
        either model may clear or fill its own.
        """
        heir = ModelCaches()
        with self._lock:
            for kind in self.KINDS:
                if kind not in self.REVISIONED:
                    heir._tables[kind] = dict(self._tables[kind])
        return heir

    def size(self, kind: str) -> int:
        with self._lock:
            return len(self._tables[kind])

    def __len__(self) -> int:
        with self._lock:
            return sum(len(table) for table in self._tables.values())


MISS = _MISS
