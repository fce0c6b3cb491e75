"""R4 — §2/§5: incremental updates re-extract only modified segments.

"This hashing enables incremental updates - when policies change, we
identify modified segments and only re-extract those."

Edits k statements of the TikTok-scale policy and compares a full
reprocess against the incremental update: segments re-extracted, LLM calls
made, and wall time.  Asserts the reuse fraction and the LLM-call savings.

A fixed set of questions is asked before and after each in-place update.
An update keeps the verification answers (their cache key hashes the
compiled script), so the solves after it must number exactly the
questions whose script text the edit changed.
"""

import time

from conftest import print_table

from repro import PolicyPipeline
from repro.corpus import tiktak_policy

# Unrelated to the edit, except the last two, which ask about the
# appended data types.
QUESTIONS = [
    "The user provides email to TikTak.",
    "The user provides phone number to TikTak.",
    "TikTak collects email address.",
    "TikTak shares biometric identifiers with data brokers.",
    "TikTak collects the location information.",
    "TikTak shares the email address with advertisers.",
    "Law enforcement receives the personal information.",
    "TikTak collects the synthetic datapoint number 0.",
    "TikTak shares the synthetic datapoint number 3 with advertisers.",
]


def _edit_policy(text: str, k: int) -> str:
    """Append k new statements (each a new segment) to the policy."""
    additions = "\n".join(
        f"We collect your synthetic datapoint number {i} when you use feature {i}."
        for i in range(k)
    )
    return text + "\n" + additions + "\n"


def test_r4_incremental_updates(benchmark):
    base_text = tiktak_policy().text
    pipeline = PolicyPipeline()
    model = pipeline.process(base_text)
    total_segments = len(model.extraction.segments)

    rows = []
    for k in (1, 5, 25, 100):
        edited = _edit_policy(base_text, k)

        # Full reprocess with a cold pipeline.
        cold = PolicyPipeline()
        start = time.perf_counter()
        cold.process(edited)
        full_seconds = time.perf_counter() - start
        full_calls = cold.llm.stats.calls

        # Incremental update reusing the existing model (rebuild mode).
        warm = PolicyPipeline()
        warm_model = warm.process(base_text)
        calls_before = warm.llm.stats.calls
        start = time.perf_counter()
        rebuilt_model, stats = warm.update(warm_model, edited)
        incr_seconds = time.perf_counter() - start
        incr_calls = warm.llm.stats.calls - calls_before

        # In-place update: patch the existing graph/taxonomies directly.
        patcher = PolicyPipeline()
        patch_model = patcher.process(base_text)
        scripts = {
            q: patcher.query(patch_model, q).verification.smtlib_text
            for q in QUESTIONS
        }
        start = time.perf_counter()
        patched_model, _patch_stats = patcher.update(
            patch_model, edited, in_place=True
        )
        inplace_seconds = time.perf_counter() - start
        assert (
            patched_model.statistics.total_edges
            == rebuilt_model.statistics.total_edges
        )
        after = [patcher.query(patched_model, q) for q in QUESTIONS]
        changed = {
            o.verification.smtlib_text
            for q, o in zip(QUESTIONS, after)
            if o.verification.smtlib_text != scripts[q]
        }
        assert not changed & set(scripts.values())
        resolved = sum(o.metrics.verification_misses for o in after)

        rows.append(
            [
                k,
                stats.segments_total,
                stats.segments_reextracted,
                f"{stats.reuse_fraction:.1%}",
                full_calls,
                incr_calls,
                f"{full_seconds:.2f}",
                f"{incr_seconds:.2f}",
                f"{inplace_seconds:.2f}",
                f"{resolved}/{len(QUESTIONS)}",
            ]
        )

        # Solved again: exactly the questions whose script changed.
        assert resolved == len(changed)
        assert resolved < len(QUESTIONS)
        assert stats.segments_reextracted == k
        assert stats.reuse_fraction > 0.9
        # The incremental path must save the vast majority of LLM calls.
        assert incr_calls < 0.2 * full_calls

    print_table(
        f"R4: incremental update vs full reprocess ({total_segments} base segments)",
        [
            "edited",
            "segments",
            "re-extracted",
            "reuse",
            "LLM calls (full)",
            "LLM calls (incr)",
            "full s",
            "incr s",
            "in-place s",
            "re-solved",
        ],
        rows,
    )

    # Benchmark the no-op update (pure cache traversal).
    warm = PolicyPipeline()
    warm_model = warm.process(base_text)
    benchmark.pedantic(
        warm.update, args=(warm_model, base_text), rounds=3, iterations=1
    )
