"""Regenerate ``script_digests.jsonl``, the pinned SMT-LIB script bytes.

For every question in ``verdict_traces.jsonl`` the dump holds the SHA-256
of ``VerificationResult.smtlib_text`` as a fresh default pipeline answers
it, one JSON line per question, in the traces' order.  The text is the
verification-cache key and the quarantine artifact, and ``as_dict()``
leaves it out of the verdict traces, so this file is what pins it.
``tests/test_verdict_traces.py`` replays the questions and compares.

Regenerate only when the printed script is *meant* to change, and say
why in the commit.  Run from the repository root:

    PYTHONPATH=src python tests/data/make_script_digests.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro import PolicyPipeline
from repro.corpus import meditrack_policy, metabook_policy, tiktak_policy

POLICIES = {
    "tiktak": tiktak_policy,
    "metabook": metabook_policy,
    "meditrack": meditrack_policy,
}
TRACES = Path(__file__).with_name("verdict_traces.jsonl")
OUT = Path(__file__).with_name("script_digests.jsonl")


def script_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def build() -> list[dict]:
    questions: dict[str, list[str]] = {name: [] for name in POLICIES}
    for line in TRACES.read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        questions[row["policy"]].append(row["question"])
    rows: list[dict] = []
    for name, make in POLICIES.items():
        pipeline = PolicyPipeline()
        model = pipeline.process(make().text)
        for question in questions[name]:
            text = pipeline.query(model, question).verification.smtlib_text
            rows.append(
                {"policy": name, "question": question, "sha256": script_digest(text)}
            )
    return rows


def main() -> int:
    rows = build()
    OUT.write_text(
        "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows),
        encoding="utf-8",
    )
    print(f"wrote {len(rows)} script digests to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
