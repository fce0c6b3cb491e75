"""End-to-end stress campaign for the hardened provider boundary.

Chaos suites drive ``query_batch``, ``JobRunner`` checkpoint/resume, and
the serving daemon against the named profiles (``flaky-429``,
``brownout``, ``flapping``), asserting:

* **verdict determinism** — profiles are content-keyed, so every worker
  count sees identical faults and (with the retry budget covering the
  burst length) produces traces byte-identical to a fault-free run;
* **zero lost/duplicated checkpoint records** — a supervised job under
  rate-limit chaos commits exactly one journal record per question and
  resumes to byte-identical outcomes without re-executing anything;
* **bounded shed/giveup counts** — an under-provisioned retry budget
  converts exactly the designated prompts into giveups, identically at
  every worker count;
* **no wall-clock waits** — the brownout profile's seconds of injected
  latency all flow through the injectable ``sleep`` seam.

Plus the record→replay acceptance criterion: a batch against
``ReplayLLM`` is byte-identical to the recorded run at every worker
count.  Marked ``providers``: run with ``pytest -m providers``.
"""

from __future__ import annotations

import json

import pytest

from repro import PolicyPipeline
from repro.core.pipeline import ErrorOutcome
from repro.jobs import JobConfig, JobRunner, read_journal
from repro.jobs.checkpoint import JOURNAL_NAME
from repro.llm.client import CachedLLM, UsageStats
from repro.llm.simulated import SimulatedLLM
from repro.providers import (
    ProfiledLLM,
    RecordingLLM,
    ReplayLLM,
    get_profile,
)
from repro.resilience import CircuitBreaker, RetryingLLM, RetryPolicy

pytestmark = pytest.mark.providers

DISTINCT_QUERIES = [
    "Acme collects the email address.",
    "Acme collects the phone number.",
    "Does Acme collect my name?",
    "Acme shares the usage information with analytics providers.",
    "Acme shares the location information with advertisers.",
    "Acme sells the contact information.",
    "Law enforcement receives the personal information.",
    "Acme collects the message content.",
]
QUERY_SUITE = DISTINCT_QUERIES * 3  # 24 queries, repeats share prompts
WORKER_COUNTS = (1, 2, 8)


def _trace(outcome) -> str:
    return json.dumps(outcome.as_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def baseline(small_policy_text):
    """Fault-free traces per question, from a sequential query loop."""
    pipeline = PolicyPipeline()
    model = pipeline.process(small_policy_text)
    return {q: _trace(pipeline.query(model, q)) for q in DISTINCT_QUERIES}


@pytest.fixture(scope="module")
def small_model_fresh(small_policy_text):
    return PolicyPipeline().process(small_policy_text)


def _profiled_pipeline(profile_name, *, max_retries=2, sleeps=None):
    """A pipeline whose LLM boundary runs under a stress profile.

    All sleeps (injected latency *and* retry backoff) go to ``sleeps``
    so the chaos suites never wait on the wall clock; a shared
    UsageStats aggregates the whole stack.
    """
    recorded = sleeps if sleeps is not None else []
    stats = UsageStats()
    profiled = ProfiledLLM(
        SimulatedLLM(),
        get_profile(profile_name),
        sleep=recorded.append,
        stats=stats,
    )
    llm = CachedLLM(
        CircuitBreaker(
            RetryingLLM(
                profiled,
                RetryPolicy(max_retries=max_retries),
                stats=stats,
                sleep=recorded.append,
            ),
            stats=stats,
        )
    )
    return PolicyPipeline(llm=llm), stats


class TestProfiledBatchDeterminism:
    def test_suite_is_large_enough(self):
        assert len(QUERY_SUITE) >= 20

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_flaky_429_verdicts_match_fault_free_run(
        self, small_model_fresh, baseline, workers
    ):
        pipeline, stats = _profiled_pipeline("flaky-429")
        batch = pipeline.query_batch(
            small_model_fresh, QUERY_SUITE, max_workers=workers
        )
        assert batch.errors == []
        assert stats.faults_injected > 0
        # Every injected 429 was cleared by a retry, and the 0.25s
        # Retry-After hint beat the geometric schedule every time.
        assert stats.retries == stats.faults_injected
        assert stats.retry_after_honored == stats.retries
        assert stats.retry_giveups == 0
        for outcome in batch.outcomes:
            assert _trace(outcome) == baseline[outcome.question]

    def test_flapping_identical_across_worker_counts(self, small_model_fresh):
        runs = []
        for workers in WORKER_COUNTS:
            pipeline, stats = _profiled_pipeline("flapping")
            batch = pipeline.query_batch(
                small_model_fresh, QUERY_SUITE, max_workers=workers
            )
            runs.append(([_trace(o) for o in batch.outcomes], stats))
        reference_traces, reference_stats = runs[0]
        assert reference_stats.faults_injected > 0
        for traces, stats in runs[1:]:
            assert traces == reference_traces
            assert stats.faults_injected == reference_stats.faults_injected
            assert stats.retries == reference_stats.retries

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_starved_retry_budget_gives_up_deterministically(
        self, small_model_fresh, workers
    ):
        """flaky-429 bursts last 2 attempts; with a 1-retry budget the
        designated prompts give up — the same set at every worker count,
        and the giveup count is bounded by the designated-prompt count."""
        pipeline, stats = _profiled_pipeline("flaky-429", max_retries=1)
        batch = pipeline.query_batch(
            small_model_fresh, QUERY_SUITE, max_workers=workers
        )
        error_questions = sorted({o.question for o in batch.errors})
        assert error_questions, "the profile must designate some prompts"
        assert stats.retry_giveups > 0
        assert stats.retry_giveups <= stats.faults_injected
        for outcome in batch.outcomes:
            if isinstance(outcome, ErrorOutcome):
                assert outcome.error_type == "RateLimitError"
        # Re-run at the same worker count: identical giveup set (the
        # cross-worker identity is covered by the parametrization, since
        # designation is content-keyed, not schedule-keyed).
        pipeline2, _ = _profiled_pipeline("flaky-429", max_retries=1)
        batch2 = pipeline2.query_batch(
            small_model_fresh, QUERY_SUITE, max_workers=workers
        )
        assert sorted({o.question for o in batch2.errors}) == error_questions

    def test_brownout_latency_rides_the_sleep_seam(self, small_model_fresh):
        """The bugfix rider: seconds of injected brownout latency must be
        simulated through the seam, never slept on the wall clock."""
        sleeps: list[float] = []
        pipeline, stats = _profiled_pipeline("brownout", sleeps=sleeps)
        batch = pipeline.query_batch(
            small_model_fresh, QUERY_SUITE, max_workers=4
        )
        assert batch.errors == []
        injected = [s for s in sleeps if s > 0]
        assert sum(injected) > 1.0, "brownout must inject real latency"
        assert max(injected) > 1.5, "some prompts must slow-trickle"


class TestRecordReplayAcceptance:
    """A batch against ReplayLLM is byte-identical to the recorded run."""

    def test_batch_record_then_replay_byte_identical(
        self, small_model_fresh, tmp_path
    ):
        tape = tmp_path / "batch.jsonl"
        with RecordingLLM(SimulatedLLM(), tape) as recorder:
            pipeline = PolicyPipeline(llm=CachedLLM(recorder))
            recorded_batch = pipeline.query_batch(
                small_model_fresh, QUERY_SUITE, max_workers=2
            )
        recorded_traces = [_trace(o) for o in recorded_batch.outcomes]
        assert recorder.stats.cassette_records > 0

        for workers in WORKER_COUNTS:
            replay = ReplayLLM(tape, strict=True)
            pipeline = PolicyPipeline(llm=CachedLLM(replay))
            batch = pipeline.query_batch(
                small_model_fresh, QUERY_SUITE, max_workers=workers
            )
            assert [_trace(o) for o in batch.outcomes] == recorded_traces
            assert replay.stats.cassette_misses == 0

    def test_replay_under_profile_still_deterministic(
        self, small_model_fresh, tmp_path
    ):
        """Cassette replay composes under a stress profile: faults and
        retries happen, completions still come from the tape."""
        tape = tmp_path / "batch.jsonl"
        with RecordingLLM(SimulatedLLM(), tape) as recorder:
            pipeline = PolicyPipeline(llm=CachedLLM(recorder))
            recorded_batch = pipeline.query_batch(
                small_model_fresh, QUERY_SUITE, max_workers=1
            )
        recorded_traces = [_trace(o) for o in recorded_batch.outcomes]

        stats = UsageStats()
        profiled = ProfiledLLM(
            ReplayLLM(tape, strict=True),
            get_profile("flaky-429"),
            sleep=lambda _s: None,
            stats=stats,
        )
        pipeline = PolicyPipeline(
            llm=CachedLLM(
                RetryingLLM(profiled, stats=stats, sleep=lambda _s: None)
            )
        )
        batch = pipeline.query_batch(
            small_model_fresh, QUERY_SUITE, max_workers=4
        )
        assert stats.faults_injected > 0
        assert [_trace(o) for o in batch.outcomes] == recorded_traces


class TestCheckpointUnderChaos:
    def test_zero_lost_or_duplicated_records_and_clean_resume(
        self, small_model_fresh, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        pipeline, stats = _profiled_pipeline("flaky-429")
        runner = JobRunner(
            pipeline,
            small_model_fresh,
            JobConfig(max_workers=4, checkpoint_dir=str(ckpt)),
        )
        result = runner.run(QUERY_SUITE)
        assert result.aborted is False
        assert stats.faults_injected > 0
        original_traces = [_trace(o) for o in result.outcomes]

        # Zero lost, zero duplicated: exactly one trusted journal record
        # per question, covering every index once.
        recovery = read_journal(ckpt / JOURNAL_NAME)
        assert sorted(recovery.completed) == list(range(len(QUERY_SUITE)))
        assert recovery.duplicates == 0
        assert recovery.torn_tail is False
        assert result.metrics.checkpoint_records == len(QUERY_SUITE)

        # Resume restores everything byte-identically; nothing re-runs.
        resume_pipeline, resume_stats = _profiled_pipeline("flaky-429")
        resumed = JobRunner(
            resume_pipeline,
            small_model_fresh,
            JobConfig(max_workers=4, checkpoint_dir=str(ckpt)),
        ).resume()
        assert resumed.metrics.checkpoint_restored == len(QUERY_SUITE)
        assert resume_stats.faults_injected == 0  # no LLM work on resume
        assert [_trace(o) for o in resumed.outcomes] == original_traces


class TestServingUnderChaos:
    QUESTION = "The company collects the user's email address."

    @pytest.fixture()
    def chaos_server(self, tmp_path):
        from repro.registry import MintSpec, PolicyRegistry
        from repro.server import PolicyServer, ServerConfig

        root = tmp_path / "reg"
        PolicyRegistry(root, max_warm=8).mint(MintSpec(count=2, seed=29))
        pipeline, stats = _profiled_pipeline("flaky-429")
        server = PolicyServer(
            ServerConfig(
                root=root,
                port=0,
                max_pending=4,
                default_deadline=10.0,
                handle_signals=False,
            ),
            pipeline=pipeline,
        )
        server.start()
        yield server, stats
        server.stop()

    def test_serves_under_rate_limit_chaos_with_bounded_giveups(
        self, chaos_server
    ):
        from repro.server import ServingClient

        server, stats = chaos_server
        host, port = server.address
        client = ServingClient(host, port, timeout=10.0)
        try:
            company = server.companies()[0]
            verdicts = []
            for _ in range(3):
                status, body = client.query(company, self.QUESTION)
                assert status == 200
                verdicts.append(body["verdict"])
            # Identical answers every time, despite injected 429s.
            assert len(set(verdicts)) == 1
            assert stats.retry_giveups == 0

            payload = client.stats()
            assert "llm" in payload
            llm = payload["llm"]
            assert llm["breaker_state"] == "closed"
            assert llm["has_breaker"] is True
            usage = llm["usage"]
            assert usage["retry_giveups"] == 0
            # The wrapper stack owns these counters; metrics keeps no copy.
            assert "breaker_state" not in payload["metrics"]
        finally:
            client.close()
