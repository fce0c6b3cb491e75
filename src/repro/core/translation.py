"""Phase 3 step 1: translate query vocabulary into policy vocabulary.

The multi-step translation the paper describes: cosine similarity between
each query term and all policy terms proposes top-k (k=10) candidates, and
an LLM equivalence prompt confirms or rejects each candidate.  Confirmed
candidates win by similarity rank; with no confirmation the original term
is kept (and will simply fail to match policy statements, surfacing as an
INVALID verdict rather than a silent wrong answer).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.caches import ModelCaches
from repro.core.metrics import PipelineMetrics
from repro.embeddings.search import DEFAULT_TOP_K, top_k
from repro.embeddings.store import EmbeddingStore
from repro.llm.tasks import TaskRunner


@dataclass(frozen=True, slots=True)
class TranslationResult:
    """Outcome of translating one query term."""

    original: str
    translated: str
    similarity: float
    verified: bool  # confirmed by the LLM equivalence prompt

    @property
    def changed(self) -> bool:
        return self.original != self.translated

    @property
    def fell_back(self) -> bool:
        """Did the term keep its raw form for lack of a confirmed match?"""
        return not self.verified and self.original == self.translated


def translate_term(
    runner: TaskRunner,
    store: EmbeddingStore,
    term: str,
    *,
    vocabulary: set[str] | None = None,
    k: int = DEFAULT_TOP_K,
    min_similarity: float = 0.3,
) -> TranslationResult:
    """Translate one term into the policy's vocabulary.

    Args:
        vocabulary: when given, only hits inside this set are considered
            (used to restrict matches to graph node names, excluding the
            edge-text keys that share the store).
    """
    lowered = term.strip().lower()
    if vocabulary is not None and lowered in vocabulary:
        return TranslationResult(lowered, lowered, 1.0, True)
    if vocabulary is None and lowered in store:
        return TranslationResult(lowered, lowered, 1.0, True)

    # Over-fetch before the vocabulary filter: the store also holds
    # edge-text keys, which would otherwise crowd node terms out of the
    # top-k window.
    hits = top_k(store, lowered, k=max(3 * k, 30), min_score=min_similarity)
    if vocabulary is not None:
        hits = [h for h in hits if h.key in vocabulary]
    hits = hits[:k]
    for hit in hits:
        if runner.semantic_equivalence(lowered, hit.key):
            return TranslationResult(lowered, hit.key, hit.score, True)
    if hits:
        # No candidate survived verification; report the best rejected one
        # for diagnostics but keep the original term.
        return TranslationResult(lowered, lowered, hits[0].score, False)
    return TranslationResult(lowered, lowered, 0.0, False)


def translation_cache_key(
    term: str, *, k: int, min_similarity: float, revision: int = 0
) -> tuple[str, int, float, int]:
    """Canonical cache key for one term translation.

    The key embeds the model's vocabulary ``revision`` so entries cached
    before an incremental update can never answer queries against the
    updated vocabulary.
    """
    return (term.strip().lower(), k, min_similarity, revision)


def translate_query_terms(
    runner: TaskRunner,
    store: EmbeddingStore,
    terms: list[str],
    *,
    vocabulary: set[str] | None = None,
    k: int = DEFAULT_TOP_K,
    min_similarity: float = 0.3,
    cache: ModelCaches | None = None,
    revision: int = 0,
    metrics: PipelineMetrics | None = None,
) -> dict[str, TranslationResult]:
    """Translate several query terms; returns a per-term result map.

    With a ``cache``, each term is looked up by
    :func:`translation_cache_key` first; misses are computed and stored.
    :class:`TranslationResult` is frozen, so cached instances are safely
    shared across concurrent queries.

    Terms that keep their raw form are counted in
    ``metrics.translation_fallbacks``.
    """
    results: dict[str, TranslationResult] = {}
    for term in terms:
        if not term or not term.strip():
            continue
        key = translation_cache_key(
            term, k=k, min_similarity=min_similarity, revision=revision
        )
        def run_translate(term: str = term) -> TranslationResult:
            return translate_term(
                runner,
                store,
                term,
                vocabulary=vocabulary,
                k=k,
                min_similarity=min_similarity,
            )

        if cache is not None:
            result, computed = cache.get_or_compute(
                "translation", key, run_translate
            )
            if metrics is not None:
                if computed:
                    metrics.translation_misses += 1
                else:
                    metrics.translation_hits += 1
        else:
            result = run_translate()
            if metrics is not None:
                metrics.translation_misses += 1
        if result.fell_back and metrics is not None:
            metrics.translation_fallbacks += 1
        results[term] = result
    return results
