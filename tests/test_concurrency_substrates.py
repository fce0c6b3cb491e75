"""Concurrency hammer tests for the shared pipeline substrates.

``query_batch`` workers share one :class:`EmbeddingStore` and one
:class:`CachedLLM` per pipeline.  These tests start many threads on a
barrier and assert the substrate invariants the batch engine relies on:
no lost inserts, no duplicate backend calls for identical prompts, and
usage accounting that adds up exactly.  Heavier variants carry the
``slow`` marker (deselect with ``-m "not slow"``).
"""

from __future__ import annotations

import json
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.caches import ModelCaches
from repro.embeddings.search import top_k
from repro.embeddings.store import EmbeddingStore
from repro.errors import ReproError
from repro.llm.client import CachedLLM


class CountingLLM:
    """Backend that records every prompt it actually serves."""

    def __init__(self, delay: float = 0.0, fail_on: str | None = None) -> None:
        self.delay = delay
        self.fail_on = fail_on
        self.calls: list[str] = []
        self._lock = threading.Lock()

    def complete(self, prompt: str) -> str:
        with self._lock:
            self.calls.append(prompt)
        if self.delay:
            time.sleep(self.delay)
        if self.fail_on is not None and self.fail_on in prompt:
            raise ReproError(f"backend refused: {prompt!r}")
        return json.dumps({"echo": prompt})


def _hammer(n_threads: int, work) -> list[BaseException]:
    """Run ``work(thread_index)`` on barrier-started threads; collect errors."""
    barrier = threading.Barrier(n_threads)
    errors: list[BaseException] = []
    errors_lock = threading.Lock()

    def runner(index: int) -> None:
        barrier.wait()
        try:
            work(index)
        except BaseException as exc:  # noqa: BLE001 - reported by the test
            with errors_lock:
                errors.append(exc)

    threads = [
        threading.Thread(target=runner, args=(i,)) for i in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return errors


class TestCachedLLMConcurrency:
    def _assert_invariants(
        self, llm: CachedLLM, inner: CountingLLM, prompts: list[str], requests: int
    ) -> None:
        distinct = len(set(prompts))
        # The dedup guarantee: each distinct prompt reached the backend once.
        assert len(inner.calls) == distinct
        assert sorted(set(inner.calls)) == sorted(set(prompts))
        # Accounting adds up exactly: every request was either the one
        # backend call for its prompt or a cache hit.
        assert llm.stats.calls == distinct
        assert llm.stats.cache_hits == requests - distinct
        assert sum(llm.stats.calls_by_task.values()) == llm.stats.calls
        assert len(llm) == distinct

    def test_identical_prompts_hit_backend_once(self):
        inner = CountingLLM(delay=0.01)
        llm = CachedLLM(inner)
        prompts = [f"prompt number {i % 4}" for i in range(16)]
        n_threads, per_thread = 8, len(prompts)

        def work(_index: int) -> None:
            for prompt in prompts:
                completion = llm.complete(prompt)
                assert json.loads(completion)["echo"] == prompt

        errors = _hammer(n_threads, work)
        assert not errors
        self._assert_invariants(llm, inner, prompts, n_threads * per_thread)

    def test_waiters_receive_owner_result(self):
        inner = CountingLLM(delay=0.05)
        llm = CachedLLM(inner)
        results: dict[int, str] = {}
        lock = threading.Lock()

        def work(index: int) -> None:
            value = llm.complete("the one contended prompt")
            with lock:
                results[index] = value

        errors = _hammer(12, work)
        assert not errors
        assert len(inner.calls) == 1
        assert len(set(results.values())) == 1

    def test_backend_errors_propagate_and_are_not_cached(self):
        inner = CountingLLM(delay=0.01, fail_on="poison")
        llm = CachedLLM(inner)
        outcomes: list[str] = []
        lock = threading.Lock()

        def work(_index: int) -> None:
            try:
                llm.complete("poison prompt")
                with lock:
                    outcomes.append("ok")
            except ReproError:
                with lock:
                    outcomes.append("error")

        errors = _hammer(6, work)
        assert not errors
        assert set(outcomes) == {"error"}
        # Failures never enter the cache; a later attempt retries the backend.
        assert len(llm) == 0
        with pytest.raises(ReproError):
            llm.complete("poison prompt")
        assert len(inner.calls) >= 2

    @pytest.mark.slow
    def test_sustained_hammer(self):
        inner = CountingLLM()
        llm = CachedLLM(inner)
        prompts = [f"sustained prompt {i % 25}" for i in range(200)]
        n_threads = 16

        def work(index: int) -> None:
            for offset, prompt in enumerate(prompts):
                llm.complete(prompts[(offset + index) % len(prompts)])
                llm.complete(prompt)

        errors = _hammer(n_threads, work)
        assert not errors
        self._assert_invariants(
            llm, inner, prompts, n_threads * 2 * len(prompts)
        )


class TestEmbeddingStoreConcurrency:
    def test_concurrent_adds_lose_nothing(self):
        store = EmbeddingStore()
        keys = [f"data type {i % 20}" for i in range(60)]

        def work(index: int) -> None:
            for offset in range(len(keys)):
                store.add(keys[(offset + index) % len(keys)])

        errors = _hammer(8, work)
        assert not errors
        distinct = sorted(set(keys))
        assert len(store) == len(distinct)
        assert sorted(store.keys) == distinct
        assert store.matrix().shape == (len(distinct), store.model.dim)
        # Index and rows stayed aligned: each key's stored vector is the
        # model's deterministic embedding of that key.
        for key in distinct:
            assert np.allclose(store.get(key), store.model.embed(key))

    def test_search_during_inserts_is_consistent(self):
        store = EmbeddingStore()
        store.add_many(["email address", "phone number", "postal address"])
        insert_keys = [f"synthetic field {i}" for i in range(40)]

        def work(index: int) -> None:
            if index % 2 == 0:
                # Even threads partition the insert set between them.
                for key in insert_keys[index // 2 :: 4]:
                    store.add(key)
            else:
                for _ in range(30):
                    hits = top_k(store, "email", k=5)
                    assert hits, "seeded keys must always be searchable"
                    # Scores pair with their own keys even mid-insert.
                    for hit in hits:
                        assert hit.key in store

        errors = _hammer(8, work)
        assert not errors
        assert len(store) == 3 + len(insert_keys)

    def test_snapshot_is_internally_aligned(self):
        store = EmbeddingStore()

        def work(index: int) -> None:
            for i in range(50):
                store.add(f"key {index} {i}")
                keys, matrix = store.snapshot()
                assert len(keys) == matrix.shape[0]

        errors = _hammer(6, work)
        assert not errors
        assert len(store) == 6 * 50

    def test_shared_word_vectors_under_contention(self):
        # Models of two configurations embed the same words at once while
        # the process-wide word memo is cold; every embedding must equal
        # the single-threaded one of its own configuration.
        from repro.embeddings import model as model_module
        from repro.embeddings.model import EmbeddingModel

        words = [f"word{i}" for i in range(40)] + ["email address", "email"]
        weights = (0.8, 0.5)
        expected = {
            (weight, word): EmbeddingModel(subword_weight=weight).embed(word).tobytes()
            for weight in weights
            for word in words
        }
        model_module._word_vector.cache_clear()

        def work(index: int) -> None:
            weight = weights[index % 2]
            model = EmbeddingModel(subword_weight=weight)
            for word in words[index:] + words[:index]:
                assert model.embed(word).tobytes() == expected[(weight, word)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            errors = _hammer(8, work)
        finally:
            sys.setswitchinterval(interval)
        assert not errors

    def test_loaded_store_takes_concurrent_adds(self):
        seeded = EmbeddingStore()
        seeded.add_many(["email address", "phone number"])
        store = EmbeddingStore.from_bytes(seeded.to_bytes())
        keys = [f"field {i}" for i in range(30)]

        def work(index: int) -> None:
            for key in keys[index::3]:
                store.add(key)
                assert top_k(store, "email", k=1)[0].key == "email address"

        errors = _hammer(6, work)
        assert not errors
        assert sorted(store.keys) == sorted(["email address", "phone number", *keys])
        for key in store.keys:
            assert store.get(key).tobytes() == store.model.embed(key).tobytes()

    def test_searchers_keep_valid_views_while_one_thread_appends(self):
        # One appender fills the store past several regrowths while
        # searchers hold on to every snapshot they take; no view may
        # change under them, and every join is bounded.
        store = EmbeddingStore()
        store.add_many(["email address", "phone number"])
        keys = [f"appended field {i}" for i in range(200)]
        done = threading.Event()
        errors: list[BaseException] = []

        def append() -> None:
            try:
                for key in keys:
                    store.add(key)
            except BaseException as exc:  # noqa: BLE001 - reported by the test
                errors.append(exc)
            finally:
                done.set()

        def search() -> None:
            held = []
            try:
                while not done.is_set() or len(held) < 5:
                    assert top_k(store, "email", k=1)[0].key == "email address"
                    snapshot_keys, matrix = store.snapshot()
                    assert len(snapshot_keys) == matrix.shape[0]
                    held.append((snapshot_keys, matrix, matrix.tobytes()))
                for snapshot_keys, matrix, data in held:
                    assert matrix.tobytes() == data
                    last = snapshot_keys[-1]
                    assert matrix[-1].tobytes() == store.model.embed(last).tobytes()
            except BaseException as exc:  # noqa: BLE001 - reported by the test
                errors.append(exc)

        threads = [threading.Thread(target=append)] + [
            threading.Thread(target=search) for _ in range(3)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert store.keys == ["email address", "phone number", *keys]

    @pytest.mark.slow
    def test_sustained_mixed_workload(self):
        store = EmbeddingStore()
        vocabulary = [f"field number {i % 64}" for i in range(512)]

        def work(index: int) -> None:
            for offset, key in enumerate(vocabulary):
                store.add(vocabulary[(offset + index) % len(vocabulary)])
                if offset % 16 == 0:
                    top_k(store, key, k=3)
                    store.get(key)

        errors = _hammer(16, work)
        assert not errors
        assert len(store) == len(set(vocabulary))


class TestModelCachesSingleFlight:
    """``ModelCaches.get_or_compute``: one computation per distinct key,
    no matter how the thread pool interleaves the callers."""

    def _counting_compute(self, value="result", delay=0.0, fail_first=False):
        state = {"calls": 0}
        lock = threading.Lock()

        def compute():
            with lock:
                state["calls"] += 1
                call = state["calls"]
            if delay:
                time.sleep(delay)
            if fail_first and call == 1:
                raise ReproError("first computation dies")
            return value

        return compute, state

    def test_concurrent_callers_compute_exactly_once(self):
        caches = ModelCaches()
        compute, state = self._counting_compute(value=object(), delay=0.05)
        results = []
        results_lock = threading.Lock()

        def work(index: int) -> None:
            value, computed = caches.get_or_compute("verification", "k", compute)
            with results_lock:
                results.append((value, computed))

        errors = _hammer(16, work)
        assert not errors
        # The whole stampede paid for one solve; everyone shares the object.
        assert state["calls"] == 1
        assert len({id(value) for value, _ in results}) == 1
        assert sum(1 for _, computed in results if computed) == 1
        assert caches.misses["verification"] == 1
        assert caches.hits["verification"] == 15

    def test_distinct_keys_each_compute_once(self):
        caches = ModelCaches()
        keys = [f"problem-{i}" for i in range(8)]
        calls: dict[str, int] = {key: 0 for key in keys}
        calls_lock = threading.Lock()

        def work(index: int) -> None:
            for offset in range(len(keys)):
                key = keys[(offset + index) % len(keys)]

                def compute(key: str = key):
                    with calls_lock:
                        calls[key] += 1
                    return key.upper()

                value, _ = caches.get_or_compute("translation", key, compute)
                assert value == key.upper()

        errors = _hammer(16, work)
        assert not errors
        assert calls == {key: 1 for key in keys}
        assert caches.misses["translation"] == len(keys)
        assert caches.hits["translation"] == 16 * len(keys) - len(keys)

    def test_leader_failure_wakes_followers_to_retry(self):
        caches = ModelCaches()
        compute, state = self._counting_compute(
            value="rescued", delay=0.05, fail_first=True
        )

        def work(index: int) -> None:
            value, _ = caches.get_or_compute("verification", "k", compute)
            assert value == "rescued"

        errors = _hammer(8, work)
        # Exactly one caller inherited the failure; a parked follower was
        # woken, re-elected, and computed the value for everyone else.
        assert len(errors) == 1
        assert isinstance(errors[0], ReproError)
        assert state["calls"] == 2
        assert caches.get("verification", "k") == "rescued"

    def test_failed_computation_caches_nothing(self):
        caches = ModelCaches()

        def compute():
            raise ReproError("boom")

        with pytest.raises(ReproError):
            caches.get_or_compute("subgraph", "k", compute)
        assert caches.misses["subgraph"] == 0
        assert caches.size("subgraph") == 0
        # The flight was cleared: a later caller computes fresh.
        value, computed = caches.get_or_compute("subgraph", "k", lambda: 7)
        assert (value, computed) == (7, True)

    def test_rejected_value_reaches_waiters_unstored(self):
        caches = ModelCaches()
        compute, state = self._counting_compute(value="stale", delay=0.05)

        def work(index: int) -> None:
            value, _ = caches.get_or_compute(
                "verification", "k", compute, keep=lambda v: False
            )
            assert value == "stale"

        errors = _hammer(8, work)
        assert not errors
        assert state["calls"] == 1
        assert caches.size("verification") == 0

    def test_flight_key_separates_computations_not_values(self):
        caches = ModelCaches()
        compute, state = self._counting_compute(delay=0.05)

        def work(index: int) -> None:
            caches.get_or_compute(
                "verification", "k", compute, flight_key=("k", index % 2)
            )

        errors = _hammer(8, work)
        assert not errors
        # At most one computation per flight key; later callers hit the table.
        assert 1 <= state["calls"] <= 2
        assert caches.size("verification") == 1

    def test_kinds_are_independent_namespaces(self):
        caches = ModelCaches()
        for kind in ModelCaches.KINDS:
            value, computed = caches.get_or_compute(kind, "same-key", lambda: kind)
            assert (value, computed) == (kind, True)
        for kind in ModelCaches.KINDS:
            value, computed = caches.get_or_compute(kind, "same-key", lambda: "no")
            assert (value, computed) == (kind, False)
