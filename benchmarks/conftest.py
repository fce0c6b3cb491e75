"""Shared fixtures for the benchmark suite.

Each bench prints the paper-style table it regenerates (run with ``-s`` to
see them) and asserts the *shape* claims — who wins, by roughly what
factor, where the solver gives out — so a green bench run doubles as a
reproduction check.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import PolicyPipeline
from repro.core.graphs import _phrase_kind
from repro.corpus import metabook_policy, tiktak_policy
from repro.embeddings.model import _word_vector

BENCH_DIR = Path(__file__).resolve().parent


@pytest.fixture(scope="session")
def pipeline() -> PolicyPipeline:
    return PolicyPipeline()


@pytest.fixture(scope="session")
def tiktak_model(pipeline):
    return pipeline.process(tiktak_policy().text)


@pytest.fixture(scope="session")
def metabook_model(pipeline):
    return pipeline.process(metabook_policy().text)


def forget_process_memos() -> None:
    """Empty the process-wide memos, as a fresh CLI process starts.

    Word vectors and node-kind answers are memoized per process, so a
    "cold invocation" simulated inside the bench process would otherwise
    reuse what earlier invocations (and the mint) computed.
    """
    _word_vector.cache_clear()
    _phrase_kind.cache_clear()


def write_bench_json(
    name: str, payload: dict, *, section: str | None = None
) -> Path:
    """Persist a bench's headline numbers as ``BENCH_<name>.json``.

    The machine-readable twin of the printed table: labels and measured
    numbers only — no timestamps, hostnames, or environment echo — so
    committed artifacts diff as pure performance movement.  A bench file
    with several tests passes ``section`` so each test owns one top-level
    key of the shared artifact instead of overwriting its siblings.
    """
    path = BENCH_DIR / f"BENCH_{name}.json"
    if section is None:
        data = payload
    else:
        data = {}
        if path.exists():
            try:
                data = json.loads(path.read_text("utf-8"))
            except (OSError, json.JSONDecodeError):
                data = {}
        data[section] = payload
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", "utf-8")
    return path


def print_table(title: str, headers: list[str], rows: list[list[object]]) -> None:
    """Render an aligned text table to stdout."""
    widths = [len(h) for h in headers]
    rendered = [[str(c) for c in row] for row in rows]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    print(f"\n== {title}")
    print("  " + " | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    print("  " + "-+-".join("-" * w for w in widths))
    for row in rendered:
        print("  " + " | ".join(c.ljust(w) for c, w in zip(row, widths)))
