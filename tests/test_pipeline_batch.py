"""Determinism and cache-correctness tests for the batch query engine.

``query_batch`` must be a pure performance optimization: whatever the
worker count and whatever the cache state, its outcomes must be
byte-identical to a sequential ``query`` loop.  The second half covers the
update -> query interaction: per-model caches must never serve answers
computed against a previous policy revision.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import replace

import pytest

from repro import PipelineConfig, PolicyPipeline, Verdict
from repro.core import pipeline as pipeline_module
from repro.core.caches import MISS
from repro.solver.interface import SolverBudget

# Mix of distinct and repeated questions: repeats exercise cache sharing,
# the distinct ones exercise misses, the interrogative exercises the
# normalization path.  24 queries, 8 distinct.
DISTINCT_QUERIES = [
    "The user provides email to TikTak.",
    "The user provides phone number to TikTak.",
    "TikTak collects email address.",
    "TikTak shares biometric identifiers with data brokers.",
    "TikTak collects the location information.",
    "TikTak shares the email address with advertisers.",
    "Does TikTak collect my email?",
    "Law enforcement receives the personal information.",
]
QUERY_SUITE = DISTINCT_QUERIES * 3


def _trace(outcomes) -> str:
    """Canonical byte string of a list of outcomes (metrics excluded)."""
    return json.dumps([o.as_dict() for o in outcomes], sort_keys=True)


class TestBatchDeterminism:
    def test_batch_matches_sequential_across_worker_counts(
        self, pipeline, tiktak_model
    ):
        tiktak_model.caches.clear()
        sequential = [pipeline.query(tiktak_model, q) for q in QUERY_SUITE]
        expected = _trace(sequential)
        assert len(QUERY_SUITE) >= 20
        for workers in (1, 4, 8):
            tiktak_model.caches.clear()
            batch = pipeline.query_batch(
                tiktak_model, QUERY_SUITE, max_workers=workers
            )
            assert batch.max_workers == workers
            assert [o.question for o in batch.outcomes] == QUERY_SUITE
            assert batch.verdicts == [o.verdict for o in sequential]
            assert [o.subgraph.num_edges for o in batch.outcomes] == [
                o.subgraph.num_edges for o in sequential
            ]
            assert _trace(batch.outcomes) == expected

    def test_warm_and_cold_caches_agree(self, pipeline, tiktak_model):
        tiktak_model.caches.clear()
        cold = pipeline.query_batch(tiktak_model, DISTINCT_QUERIES, max_workers=4)
        # Second run hits the now-populated caches everywhere.
        warm = pipeline.query_batch(tiktak_model, DISTINCT_QUERIES, max_workers=4)
        assert _trace(warm.outcomes) == _trace(cold.outcomes)
        assert warm.metrics.verification_hits == len(DISTINCT_QUERIES)
        assert warm.metrics.verification_misses == 0

    def test_caches_disabled_agrees_with_enabled(self, pipeline, tiktak_model):
        tiktak_model.caches.clear()
        cached = pipeline.query_batch(tiktak_model, DISTINCT_QUERIES, max_workers=4)
        plain_pipeline = PolicyPipeline(
            config=PipelineConfig(enable_query_caches=False)
        )
        plain = [plain_pipeline.query(tiktak_model, q) for q in DISTINCT_QUERIES]
        assert _trace(plain) == _trace(cached.outcomes)
        assert all(o.metrics.cache_hits == 0 for o in plain)

    def test_repeated_queries_share_caches(self, pipeline, tiktak_model):
        tiktak_model.caches.clear()
        batch = pipeline.query_batch(tiktak_model, QUERY_SUITE, max_workers=8)
        metrics = batch.metrics
        # 8 distinct problems, 24 queries: at most one verification miss
        # per distinct problem (a racing worker may duplicate one).
        assert metrics.verification_misses >= len(DISTINCT_QUERIES)
        assert metrics.verification_hits >= 1
        assert metrics.queries == len(QUERY_SUITE)
        assert metrics.translation_hits + metrics.translation_misses > 0

    def test_batch_outcome_surfaces(self, pipeline, tiktak_model):
        batch = pipeline.query_batch(
            tiktak_model, DISTINCT_QUERIES[:3], max_workers=2
        )
        assert len(batch) == 3
        assert [o.question for o in batch] == DISTINCT_QUERIES[:3]
        as_dict = batch.as_dict()
        assert as_dict["questions"] == 3
        assert sum(as_dict["verdicts"].values()) == 3
        assert "cache_hit_rate" in as_dict["metrics"]
        assert "queries in" in batch.summary()
        trace = batch.outcomes[0].as_dict(include_metrics=True)
        assert "metrics" in trace
        assert trace["metrics"]["queries"] == 1

    def test_empty_batch(self, pipeline, tiktak_model):
        batch = pipeline.query_batch(tiktak_model, [])
        assert len(batch) == 0
        assert batch.metrics.queries == 0

    def test_invalid_worker_count_rejected(self, pipeline, tiktak_model):
        with pytest.raises(ValueError):
            pipeline.query_batch(tiktak_model, ["x"], max_workers=0)


def _revisioned_sizes(caches) -> list[int]:
    return [caches.size(kind) for kind in caches.REVISIONED]


class TestCacheInvalidation:
    """update -> query must never serve answers from a stale revision."""

    ADDITION = "\nWe collect your shoe size.\n"
    QUESTION = "Acme collects the shoe size."

    def test_in_place_update_invalidates_caches(self, small_policy_text):
        pipeline = PolicyPipeline()
        model = pipeline.process(small_policy_text)
        before = pipeline.query(model, self.QUESTION)
        assert before.verdict is not Verdict.VALID
        assert len(model.caches) > 0
        revision = model.revision

        pipeline.update(model, small_policy_text + self.ADDITION, in_place=True)
        assert model.revision == revision + 1
        assert _revisioned_sizes(model.caches) == [0, 0]

        after = pipeline.query(model, self.QUESTION)
        assert after.verdict is Verdict.VALID
        # The fresh answer was computed, not served from the old cache.
        assert after.metrics.verification_hits == 0

    def test_rebuild_update_invalidates_caches(self, small_policy_text):
        pipeline = PolicyPipeline()
        model = pipeline.process(small_policy_text)
        assert pipeline.query(model, self.QUESTION).verdict is not Verdict.VALID

        updated, _ = pipeline.update(model, small_policy_text + self.ADDITION)
        assert updated.revision == model.revision + 1
        assert _revisioned_sizes(updated.caches) == [0, 0]
        after = pipeline.query(updated, self.QUESTION)
        assert after.verdict is Verdict.VALID
        assert after.metrics.verification_hits == 0

    def test_update_retires_previously_valid_answer(self, small_policy_text):
        pipeline = PolicyPipeline()
        extended = small_policy_text + self.ADDITION
        model = pipeline.process(extended)
        assert pipeline.query(model, self.QUESTION).verdict is Verdict.VALID

        pipeline.update(model, small_policy_text, in_place=True)
        retired = pipeline.query(model, self.QUESTION)
        assert retired.verdict is not Verdict.VALID

    def test_revision_keys_make_stale_entries_unreachable(self, small_policy_text):
        """Even without the eager clear, old keys cannot answer new queries."""
        from repro.core.translation import translation_cache_key

        pipeline = PolicyPipeline()
        model = pipeline.process(small_policy_text)
        pipeline.query(model, self.QUESTION)
        key_before = translation_cache_key(
            "shoe size",
            k=pipeline.config.top_k,
            min_similarity=pipeline.config.min_similarity,
            revision=model.revision,
        )
        pipeline.update(model, small_policy_text + self.ADDITION, in_place=True)
        key_after = translation_cache_key(
            "shoe size",
            k=pipeline.config.top_k,
            min_similarity=pipeline.config.min_similarity,
            revision=model.revision,
        )
        assert key_before != key_after
        assert model.caches.get("translation", key_before) is MISS

    def test_batch_after_update_sees_new_policy(self, small_policy_text):
        pipeline = PolicyPipeline()
        model = pipeline.process(small_policy_text)
        pipeline.query_batch(model, [self.QUESTION] * 4, max_workers=4)
        pipeline.update(model, small_policy_text + self.ADDITION, in_place=True)
        batch = pipeline.query_batch(model, [self.QUESTION] * 4, max_workers=4)
        assert all(v is Verdict.VALID for v in batch.verdicts)


class TestVerificationAnswersOutliveAnUpdate:
    """Verification keys hash the script, so an update keeps the answers
    whose script its edit left unchanged and solves only the others."""

    ADDITION = TestCacheInvalidation.ADDITION
    CHANGED = TestCacheInvalidation.QUESTION
    UNCHANGED = "Acme shares the email address with advertisers."

    @pytest.mark.parametrize("in_place", [True, False])
    def test_unchanged_script_is_a_hit_with_the_fresh_verdict(
        self, small_policy_text, in_place
    ):
        pipeline = PolicyPipeline()
        model = pipeline.process(small_policy_text)
        before = pipeline.query(model, self.UNCHANGED)
        text = small_policy_text + self.ADDITION
        updated, _ = pipeline.update(model, text, in_place=in_place)

        after = pipeline.query(updated, self.UNCHANGED)
        assert after.verification.smtlib_text == before.verification.smtlib_text
        assert after.metrics.verification_hits == 1
        assert after.metrics.verification_misses == 0
        fresh = PolicyPipeline()
        scratch = fresh.query(fresh.process(text), self.UNCHANGED)
        assert scratch.verification.smtlib_text == after.verification.smtlib_text
        assert after.verdict is scratch.verdict
        assert after.as_dict() == scratch.as_dict()

    @pytest.mark.parametrize("in_place", [True, False])
    def test_changed_script_is_solved_again(self, small_policy_text, in_place):
        pipeline = PolicyPipeline()
        model = pipeline.process(small_policy_text)
        before = pipeline.query(model, self.CHANGED)
        updated, _ = pipeline.update(
            model, small_policy_text + self.ADDITION, in_place=in_place
        )
        assert updated.caches.size("verification") >= 1

        after = pipeline.query(updated, self.CHANGED)
        assert after.verification.smtlib_text != before.verification.smtlib_text
        assert after.metrics.verification_misses == 1
        assert after.metrics.verification_hits == 0
        assert (before.verdict, after.verdict) == (Verdict.INVALID, Verdict.VALID)

    def test_rebuilt_and_old_model_tables_are_independent(self, small_policy_text):
        pipeline = PolicyPipeline()
        model = pipeline.process(small_policy_text)
        pipeline.query(model, self.UNCHANGED)
        pipeline.query(model, self.CHANGED)
        updated, _ = pipeline.update(model, small_policy_text + self.ADDITION)
        assert updated.caches is not model.caches
        assert updated.caches.size("verification") == 2

        updated.caches.clear()
        assert model.caches.size("verification") == 2
        assert pipeline.query(model, self.UNCHANGED).metrics.verification_hits == 1

        refilled, _ = pipeline.update(model, small_policy_text + self.ADDITION)
        pipeline.query(refilled, self.CHANGED)
        assert refilled.caches.size("verification") == 3
        model.caches.clear()
        assert len(model.caches) == 0
        assert refilled.caches.size("verification") == 3
        hit = pipeline.query(refilled, self.UNCHANGED)
        assert hit.metrics.verification_hits == 1


class TestWallClockAndTheVerificationCache:
    """The solver's wall-clock timeout is not part of the verification
    cache key, and a result whose deadline ran out is never stored."""

    QUESTION = "Acme shares the email address with advertisers."

    @pytest.fixture()
    def fresh(self, small_policy_text):
        pipeline = PolicyPipeline()
        return pipeline, pipeline.process(small_policy_text)

    def _budget(self, pipeline, seconds):
        return replace(pipeline.config.solver_budget, timeout_seconds=seconds)

    def test_decided_verdict_hits_under_any_timeout(self, fresh):
        pipeline, model = fresh
        first = pipeline.query(
            model, self.QUESTION, budget=self._budget(pipeline, 30.0)
        )
        second = pipeline.query(
            model, self.QUESTION, budget=self._budget(pipeline, 7.5)
        )
        assert first.verdict is not Verdict.UNKNOWN
        assert second.as_dict() == first.as_dict()
        assert model.caches.size("verification") == 1
        assert model.caches.hits["verification"] == 1

    @pytest.mark.parametrize("phase", ["grounding", "search"])
    def test_deadline_trip_is_not_cached(self, fresh, phase, monkeypatch):
        from repro.solver.grounding import GroundingCounter

        pipeline, model = fresh
        with monkeypatch.context() as patch:
            if phase == "search":
                # Grounding ignores the clock, so the trip lands in the SAT loop.
                spend = GroundingCounter.spend

                def spend_without_deadline(self, n=1):
                    deadline, self.deadline = self.deadline, None
                    try:
                        spend(self, n)
                    finally:
                        self.deadline = deadline

                patch.setattr(GroundingCounter, "spend", spend_without_deadline)
            tripped = pipeline.query(
                model, self.QUESTION, budget=self._budget(pipeline, 1e-9)
            )
        assert tripped.verdict is Verdict.UNKNOWN
        assert tripped.verification.solver_result.reason == "wall-clock timeout"
        assert model.caches.size("verification") == 0
        ample = pipeline.query(
            model, self.QUESTION, budget=self._budget(pipeline, 30.0)
        )
        assert ample.verdict is not Verdict.UNKNOWN
        assert model.caches.size("verification") == 1

    def test_short_deadline_never_waits_out_a_longer_solve(
        self, fresh, monkeypatch
    ):
        pipeline, model = fresh
        entered, release = threading.Event(), threading.Event()
        solve = pipeline_module.verify_encoded

        def slow_long_solve(encoded, *, budget, **kwargs):
            if budget.timeout_seconds > 10:
                entered.set()
                release.wait(30)
            return solve(encoded, budget=budget, **kwargs)

        monkeypatch.setattr(pipeline_module, "verify_encoded", slow_long_solve)
        outcomes = {}

        def ask(name, seconds):
            outcomes[name] = pipeline.query(
                model, self.QUESTION, budget=self._budget(pipeline, seconds)
            )

        long = threading.Thread(target=ask, args=("long", 30.0))
        short = threading.Thread(target=ask, args=("short", 2.0))
        long.start()
        try:
            assert entered.wait(10)
            started = time.monotonic()
            short.start()
            short.join(2.0)
            elapsed = time.monotonic() - started
            assert not short.is_alive()
        finally:
            release.set()
            long.join()
            short.join()
        assert elapsed < 2.0
        assert outcomes["short"].verdict is not Verdict.UNKNOWN
        assert outcomes["long"].as_dict() == outcomes["short"].as_dict()

    def test_followers_of_an_outlasted_solve_share_its_answer(
        self, small_policy_text, monkeypatch
    ):
        timeout = 0.5
        pipeline = PolicyPipeline(
            config=PipelineConfig(
                solver_budget=SolverBudget(timeout_seconds=timeout), certify=False
            )
        )
        model = pipeline.process(small_policy_text)
        calls = []
        solve = pipeline_module.verify_encoded

        def outlasting_solve(encoded, *, budget, **kwargs):
            calls.append(budget)
            time.sleep(budget.timeout_seconds)
            return solve(encoded, budget=budget, **kwargs)

        monkeypatch.setattr(pipeline_module, "verify_encoded", outlasting_solve)
        started = time.monotonic()
        batch = pipeline.query_batch(model, [self.QUESTION] * 4, max_workers=4)
        elapsed = time.monotonic() - started
        # One solve for the whole batch; its followers take its answer
        # instead of re-solving one after another.
        assert len(calls) == 1
        assert elapsed < 4 * timeout
        assert len(set(_trace([o]) for o in batch.outcomes)) == 1
        assert model.caches.size("verification") == 0
