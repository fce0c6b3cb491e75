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

Every verification goes through that script.  Two checks over the same
questions keep the round trip honest: the script read back re-prints its
own bytes, comments aside, and a solver fed the encoded formulas directly,
with no script between, reaches the verdict the script reached.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from pathlib import Path

import pytest

from repro import PipelineConfig, PolicyPipeline
from repro.corpus import meditrack_policy, metabook_policy, tiktak_policy
from repro.fol.builder import negate
from repro.smtlib import parse_script
from repro.solver import SatResult, Solver

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
def outcomes(processed):
    """(policy, [QueryOutcome]) as a fresh pipeline answers the questions."""
    policy, pipeline, model = processed
    return policy, [
        pipeline.query(model, row["question"]) for row in REFERENCE[policy]
    ]


@pytest.fixture(scope="module")
def answered(outcomes):
    """(policy, [(question, verification)]) as a fresh pipeline answers them."""
    policy, answers = outcomes
    return policy, [(o.question, o.verification) for o in answers]


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


def test_script_reprints_its_uncommented_bytes(answered):
    policy, answers = answered
    for question, verification in answers:
        text = verification.smtlib_text
        uncommented = "".join(
            line + "\n" for line in text.splitlines() if not line.startswith(";")
        )
        assert parse_script(text).to_text() == uncommented, (policy, question)


def test_direct_solver_matches_script_path(outcomes):
    # The validity check without the script: the policy formulas, then the
    # negated query in its own scope; and, after a VALID, the consistency
    # check that pops it.
    policy, answers = outcomes
    for outcome in answers:
        encoded, verification = outcome.encoded, outcome.verification
        solver = Solver(certify=True)
        for formula in encoded.policy_formulas:
            solver.assert_formula(formula)
        solver.push()
        solver.assert_formula(negate(encoded.query_formula))
        direct = solver.check_sat()
        expected = verification.solver_result
        assert direct.status is expected.status, (policy, outcome.question)
        if direct.status is not SatResult.UNKNOWN:
            assert direct.certificate.certified, (policy, outcome.question)
        if direct.status is SatResult.UNSAT:
            solver.certify = False
            solver.pop()
            consistent = {SatResult.SAT: True, SatResult.UNSAT: False}.get(
                solver.check_sat().status
            )
            assert consistent is verification.policy_consistent, (
                policy,
                outcome.question,
            )
