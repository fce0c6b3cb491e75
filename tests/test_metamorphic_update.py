"""Metamorphic relation: an unrelated update never flips a decided verdict.

TikTak answers the perfbench ``audit`` catalog (32 questions templated
from its own vocabulary, plus their paraphrases).  Then the policy gains
R4's synthetic-datapoint sentences (``benchmarks/bench_r4_incremental_updates.py``),
which name data no catalog question asks about, once as an in-place
update and once as a rebuild.  Every decided verdict must stay as it was,
and every verdict must equal the one a fresh build of the edited text
gives; with the query caches on and with them off, so answers carried
over by the verification cache are held to the same bar as fresh solves.
"""

from __future__ import annotations

import pytest

from perfbench.inputs import audit_catalog
from repro import PipelineConfig, PolicyPipeline, Verdict
from repro.corpus import tiktak_policy

DECIDED = (Verdict.VALID, Verdict.INVALID)
ADDED_STATEMENTS = 5


def _with_synthetic_datapoints(text: str, k: int) -> str:
    """R4's edit: append ``k`` statements, each a new segment."""
    additions = "\n".join(
        f"We collect your synthetic datapoint number {i} when you use feature {i}."
        for i in range(k)
    )
    return text + "\n" + additions + "\n"


@pytest.fixture(scope="module")
def setting():
    """(base text, edited text, questions, a fresh build's verdicts)."""
    base = tiktak_policy().text
    edited = _with_synthetic_datapoints(base, ADDED_STATEMENTS)
    pipeline = PolicyPipeline()
    questions: list[str] = []
    for entry in audit_catalog(pipeline.process(base), 8):
        questions += [entry.text, entry.paraphrase]
    fresh = pipeline.process(edited)
    expected = {q: pipeline.query(fresh, q).verdict for q in questions}
    return base, edited, questions, expected


@pytest.mark.parametrize("caches", [True, False], ids=["caches-on", "caches-off"])
def test_unrelated_update_never_flips_a_decided_verdict(setting, caches):
    base, edited, questions, expected = setting
    pipeline = PolicyPipeline(config=PipelineConfig(enable_query_caches=caches))
    model = pipeline.process(base)
    before = {q: pipeline.query(model, q).verdict for q in questions}
    decided = [q for q in questions if before[q] in DECIDED]
    assert len(decided) >= len(questions) // 2

    rebuilt, _ = pipeline.update(model, edited)  # leaves ``model`` live
    patched, stats = pipeline.update(model, edited, in_place=True)
    assert stats.segments_reextracted == ADDED_STATEMENTS
    hits = 0
    for name, updated in (("rebuild", rebuilt), ("in place", patched)):
        outcomes = {q: pipeline.query(updated, q) for q in questions}
        hits += sum(o.metrics.verification_hits for o in outcomes.values())
        after = {q: o.verdict for q, o in outcomes.items()}
        flipped = [q for q in decided if after[q] is not before[q]]
        assert not flipped, f"{name}: {len(flipped)} verdicts flipped, e.g. {flipped[:3]}"
        differs = [q for q in questions if after[q] is not expected[q]]
        assert not differs, f"{name}: {len(differs)} differ from a fresh build"
    # With caches on, answers carried across the update are among those checked.
    assert (hits > 0) is caches
