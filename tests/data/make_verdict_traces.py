"""Regenerate ``verdict_traces.jsonl``, the pinned verdict-trace reference.

For each bundled policy (TikTak, MetaBook, MediTrack) the dump holds the
perfbench ``audit`` catalog (32 questions templated from the model's own
vocabulary) plus each question's paraphrase, and for every one of them
``VerificationResult.as_dict()`` as a fresh default pipeline answers it,
one JSON line per question.
``tests/test_verdict_traces.py`` replays the questions and compares.

Regenerate only when a verdict is *meant* to change, and say why in the
commit.  Run from the repository root:

    PYTHONPATH=src:. python tests/data/make_verdict_traces.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from perfbench.inputs import audit_catalog
from repro import PolicyPipeline
from repro.corpus import meditrack_policy, metabook_policy, tiktak_policy

POLICIES = {
    "tiktak": tiktak_policy,
    "metabook": metabook_policy,
    "meditrack": meditrack_policy,
}
QUESTIONS_PER_POLICY = 32
OUT = Path(__file__).with_name("verdict_traces.jsonl")


def build() -> list[dict]:
    rows: list[dict] = []
    for name, make in POLICIES.items():
        pipeline = PolicyPipeline()
        model = pipeline.process(make().text)
        catalog = audit_catalog(model, QUESTIONS_PER_POLICY // 4)
        questions: list[str] = []
        for entry in catalog[:QUESTIONS_PER_POLICY]:
            questions += [entry.text, entry.paraphrase]
        rows += [
            {
                "policy": name,
                "question": question,
                "result": pipeline.query(model, question).verification.as_dict(),
            }
            for question in questions
        ]
    return rows


def main() -> int:
    rows = build()
    OUT.write_text(
        "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows),
        encoding="utf-8",
    )
    print(f"wrote {len(rows)} traces to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
