"""Bounded LRU of warm policy models with single-flight shard loads.

Loading a shard from disk costs tens of milliseconds and megabytes of
resident model; a fleet query over hundreds of companies cannot keep them
all warm.  :class:`WarmCache` bounds residency with a strict LRU and
guarantees that concurrent readers of a *cold* key trigger exactly one
disk load (single-flight): the first caller loads, everyone else waiting
on that key blocks on its load gate and is then served the freshly
cached value as a hit.

Lock ordering (the anti-deadlock contract, see DESIGN §10): a thread
acquires the per-key **load gate first**, then the global **table lock**
— never the reverse — and the loader itself runs with only the gate
held, so a slow load of one shard never blocks hits (or loads) on any
other shard.  Gates are created under the table lock and live for the
cache's lifetime (one small ``threading.Lock`` per key ever seen);
recycling them on eviction would open a window where two threads hold
*different* gates for the same key and load it twice concurrently.

Eviction order is a pure function of the access sequence: every ``get``
moves its key to the MRU end under the table lock, and inserting beyond
``capacity`` pops LRU keys.  The registry counts each ``get``'s
``was_hit`` and each ``on_evict`` into
:class:`~repro.core.metrics.PipelineMetrics` (``registry_*``), which
every report reads.  The cache's own ``hits`` / ``misses`` /
``evictions``, kept under the table lock, are read only by perfbench's
``fleet`` workload.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, TypeVar

T = TypeVar("T")


class WarmCache:
    """Thread-safe bounded LRU with single-flight loads per key."""

    def __init__(
        self,
        capacity: int,
        *,
        on_evict: Callable[[str], None] | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("WarmCache capacity must be >= 1")
        self.capacity = capacity
        self._on_evict = on_evict
        self._table_lock = threading.Lock()
        self._entries: "OrderedDict[str, object]" = OrderedDict()
        self._gates: dict[str, threading.Lock] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._table_lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._table_lock:
            return key in self._entries

    def warm_keys(self) -> list[str]:
        """Resident keys in eviction order (LRU first, MRU last)."""
        with self._table_lock:
            return list(self._entries)

    def get(self, key: str, loader: Callable[[], T]) -> tuple[T, bool]:
        """Return ``(value, was_hit)``; load at most once per cold key.

        A caller that blocked on another thread's in-flight load of the
        same key counts as a hit — it never touched disk.
        """
        with self._table_lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key], True  # type: ignore[return-value]
            gate = self._gates.get(key)
            if gate is None:
                gate = self._gates[key] = threading.Lock()
        with gate:
            # Re-check: whoever held the gate before us may have loaded it.
            with self._table_lock:
                if key in self._entries:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return self._entries[key], True  # type: ignore[return-value]
                self.misses += 1
            value = loader()  # only the gate held: other shards unaffected
            evicted: list[str] = []
            with self._table_lock:
                self._entries[key] = value
                self._entries.move_to_end(key)
                while len(self._entries) > self.capacity:
                    old_key, _ = self._entries.popitem(last=False)
                    self.evictions += 1
                    evicted.append(old_key)
            if self._on_evict is not None:
                for old_key in evicted:
                    self._on_evict(old_key)
            return value, False

    def invalidate(self, key: str) -> bool:
        """Drop ``key`` if resident (after a re-mint/update); no eviction
        counter — the caller asked, the bound didn't."""
        with self._table_lock:
            return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        with self._table_lock:
            self._entries.clear()
