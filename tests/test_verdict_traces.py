"""Pinned verdict traces: the catalog questions must answer byte-identically.

``tests/data/verdict_traces.jsonl`` holds ``VerificationResult.as_dict()``
for the perfbench ``audit`` catalog (32 questions plus their paraphrases)
on each bundled policy.  A change to the solver path that is meant to be
behaviour-preserving (caching, clause reuse, a faster encoder) must leave
every line unchanged; see ``tests/data/make_verdict_traces.py`` for how
the reference is produced.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

import pytest

from repro import PolicyPipeline
from repro.corpus import meditrack_policy, metabook_policy, tiktak_policy

TRACES = Path(__file__).parent / "data" / "verdict_traces.jsonl"
POLICIES = {
    "tiktak": tiktak_policy,
    "metabook": metabook_policy,
    "meditrack": meditrack_policy,
}


def _reference() -> dict[str, list[dict]]:
    rows: dict[str, list[dict]] = defaultdict(list)
    for line in TRACES.read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        rows[row["policy"]].append(row)
    return rows


REFERENCE = _reference()


def test_reference_covers_every_bundled_policy():
    assert set(REFERENCE) == set(POLICIES)
    for rows in REFERENCE.values():
        assert len(rows) == 64


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_verdict_traces_match_reference(policy):
    pipeline = PolicyPipeline()
    model = pipeline.process(POLICIES[policy]().text)
    mismatches = []
    for row in REFERENCE[policy]:
        got = pipeline.query(model, row["question"]).verification.as_dict()
        if json.dumps(got, sort_keys=True) != json.dumps(row["result"], sort_keys=True):
            mismatches.append(row["question"])
    assert not mismatches, f"{len(mismatches)} traces changed, e.g. {mismatches[:3]}"
