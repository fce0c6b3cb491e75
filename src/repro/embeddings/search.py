"""Cosine top-k search over an embedding store.

Implements the paper's multi-step translation: cosine similarity between a
query term and all policy terms yields the top-k (k=10) candidate pairs,
which the pipeline then confirms with an LLM equivalence prompt.  Edge
embeddings concatenate source, action, and target for whole-practice
matching.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.embeddings.store import EmbeddingStore

DEFAULT_TOP_K = 10


@dataclass(frozen=True, slots=True)
class SearchHit:
    """One nearest-neighbour result."""

    key: str
    score: float


def top_k(
    store: EmbeddingStore, query: str, k: int = DEFAULT_TOP_K, *, min_score: float = 0.0
) -> list[SearchHit]:
    """The ``k`` stored keys most similar to ``query``.

    Results are sorted by descending score with the key as a deterministic
    tie-break; hits below ``min_score`` are dropped.
    """
    if len(store) == 0 or k <= 0:
        return []
    query_vec = store.model.embed(query)
    qnorm = np.linalg.norm(query_vec)
    if qnorm == 0:
        return []
    # One consistent (keys, matrix) snapshot: concurrent inserts from other
    # query workers must not shift rows out from under the key list.
    keys, matrix = store.snapshot()
    scores = matrix @ (query_vec / qnorm)
    # Only keys scoring at least the k-th best eligible score can be hits;
    # sorting just those by (-score, key) gives the same hits, ties
    # included, as sorting every key.
    candidates = np.flatnonzero(scores >= min_score)
    if len(candidates) > k:
        eligible = scores[candidates]
        kth_best = np.partition(eligible, len(eligible) - k)[len(eligible) - k]
        candidates = candidates[eligible >= kth_best]
    ranked = sorted(
        zip((-scores[candidates]).tolist(), (keys[i] for i in candidates.tolist()))
    )
    return [SearchHit(key=key, score=-negated) for negated, key in ranked[:k]]


def edge_text(source: str, action: str, target: str) -> str:
    """Canonical text form of a graph edge for embedding purposes."""
    return f"{source} {action} {target}"
