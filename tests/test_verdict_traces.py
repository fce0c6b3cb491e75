"""Pinned verdict traces: the catalog questions must answer byte-identically.

``tests/data/verdict_traces.jsonl`` holds ``VerificationResult.as_dict()``
for the perfbench ``audit`` catalog (32 questions plus their paraphrases)
on each bundled policy.  A change to the solver path that is meant to be
behaviour-preserving (caching, clause reuse, a faster encoder) must leave
every line unchanged; see ``tests/data/make_verdict_traces.py`` for how
the reference is produced.

The same reference is replayed through ``query_batch`` with one worker,
with eight, and with the query caches off: the batch executor's
scheduling and cache sharing must not move a byte either.

``tests/data/script_digests.jsonl`` pins, for the same questions, the
SHA-256 of the SMT-LIB script each one is checked with, which ``as_dict()``
leaves out: the text is the verification-cache key and the quarantine
artifact, so a faster printer must print the same bytes (see
``tests/data/make_script_digests.py``).
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from pathlib import Path

import pytest

from repro import PipelineConfig, PolicyPipeline
from repro.corpus import meditrack_policy, metabook_policy, tiktak_policy

TRACES = Path(__file__).parent / "data" / "verdict_traces.jsonl"
DIGESTS = Path(__file__).parent / "data" / "script_digests.jsonl"
POLICIES = {
    "tiktak": tiktak_policy,
    "metabook": metabook_policy,
    "meditrack": meditrack_policy,
}


def _reference(path: Path) -> dict[str, list[dict]]:
    rows: dict[str, list[dict]] = defaultdict(list)
    for line in path.read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        rows[row["policy"]].append(row)
    return rows


REFERENCE = _reference(TRACES)
SCRIPT_DIGESTS = _reference(DIGESTS)


@pytest.fixture(scope="module", params=sorted(POLICIES))
def processed(request):
    """(policy, pipeline, model) for one bundled policy."""
    policy = request.param
    pipeline = PolicyPipeline()
    return policy, pipeline, pipeline.process(POLICIES[policy]().text)


@pytest.fixture(scope="module")
def answered(processed):
    """(policy, [(question, verification)]) as a fresh pipeline answers them."""
    policy, pipeline, model = processed
    return policy, [
        (row["question"], pipeline.query(model, row["question"]).verification)
        for row in REFERENCE[policy]
    ]


def _mismatches(rows, verifications) -> list[str]:
    """The questions whose verification differs from its reference row."""
    return [
        row["question"]
        for row, verification in zip(rows, verifications)
        if json.dumps(verification.as_dict(), sort_keys=True)
        != json.dumps(row["result"], sort_keys=True)
    ]


def test_reference_covers_every_bundled_policy():
    assert set(REFERENCE) == set(POLICIES)
    for rows in REFERENCE.values():
        assert len(rows) == 64
    # The digests pin the same questions, in the same order.
    assert {
        policy: [row["question"] for row in rows]
        for policy, rows in SCRIPT_DIGESTS.items()
    } == {
        policy: [row["question"] for row in rows]
        for policy, rows in REFERENCE.items()
    }


def test_verdict_traces_match_reference(answered):
    policy, answers = answered
    mismatches = _mismatches(REFERENCE[policy], [v for _, v in answers])
    assert not mismatches, f"{len(mismatches)} traces changed, e.g. {mismatches[:3]}"


@pytest.mark.parametrize(
    "max_workers, caches",
    [(1, True), (8, True), (None, False)],
    ids=["1-worker", "8-workers", "caches-off"],
)
def test_query_batch_replays_reference(processed, max_workers, caches):
    policy, _, model = processed
    model.caches.clear()
    pipeline = PolicyPipeline(config=PipelineConfig(enable_query_caches=caches))
    rows = REFERENCE[policy]
    batch = pipeline.query_batch(
        model, [row["question"] for row in rows], max_workers=max_workers
    )
    assert batch.errors == []
    mismatches = _mismatches(rows, [o.verification for o in batch.outcomes])
    assert not mismatches, f"{len(mismatches)} traces changed, e.g. {mismatches[:3]}"


def test_script_bytes_match_reference(answered):
    policy, answers = answered
    mismatches = [
        question
        for row, (question, verification) in zip(SCRIPT_DIGESTS[policy], answers)
        if hashlib.sha256(verification.smtlib_text.encode("utf-8")).hexdigest()
        != row["sha256"]
    ]
    assert not mismatches, f"{len(mismatches)} scripts changed, e.g. {mismatches[:3]}"
