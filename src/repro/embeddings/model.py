"""Deterministic hashed n-gram embedding model.

Each word contributes a hash-seeded pseudo-random vector plus fastText-style
character n-gram subword vectors; a phrase embedding is the L2-normalized
mean of its word embeddings.  Morphological variants ("email"/"emails") and
phrase extensions ("email address"/"email") therefore land close in cosine
space, which is the property the pipeline actually relies on.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

_DEFAULT_DIM = 256
_NGRAM_RANGE = (3, 5)


def _stable_hash(text: str) -> int:
    """64-bit content hash, stable across processes (unlike ``hash``)."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two vectors; 0.0 when either is zero."""
    denom = float(np.linalg.norm(a) * np.linalg.norm(b))
    if denom == 0.0:
        return 0.0
    return float(np.dot(a, b) / denom)


#: Bound on :func:`_word_vector`'s memo, about 2 KiB per entry at the
#: default dimension (at most ~8.5 MiB).  The three bundled policies embed
#: 336 distinct words between them, a 15-company minted fleet 281.
_WORD_MEMO_SIZE = 4096


def _char_ngrams(word: str) -> list[str]:
    padded = f"<{word}>"
    lo, hi = _NGRAM_RANGE
    grams = []
    for n in range(lo, hi + 1):
        grams.extend(padded[i : i + n] for i in range(len(padded) - n + 1))
    return grams


def _feature_vector(name: str, dim: int, feature: str) -> np.ndarray:
    rng = np.random.default_rng(_stable_hash(name + "\x00" + feature))
    vec = rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


@functools.lru_cache(maxsize=_WORD_MEMO_SIZE)
def _word_vector(name: str, dim: int, subword_weight: float, word: str) -> np.ndarray:
    """One word's vector, memoized process-wide and read-only.

    A word's vector depends only on the model configuration and the word,
    so every :class:`EmbeddingModel` with the same configuration shares
    it: a freshly loaded model embeds its first question from vectors
    earlier models already computed.
    """
    vec = _feature_vector(name, dim, "w:" + word)
    ngrams = _char_ngrams(word)
    if ngrams:
        sub = np.zeros(dim)
        for gram in ngrams:
            sub += _feature_vector(name, dim, "g:" + gram)
        sub_norm = np.linalg.norm(sub)
        if sub_norm > 0:
            sub = sub / sub_norm
        vec = (1.0 - subword_weight) * vec + subword_weight * sub
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec = vec / norm
    vec.flags.writeable = False
    return vec


@dataclass(frozen=True, slots=True)
class EmbeddingModel:
    """Hash-seeded embedding model.

    Args:
        dim: embedding dimensionality.
        name: model identifier recorded in stores; lets tests distinguish
            the "text-embedding-3-large stand-in" from the "SciBERT
            stand-in" configuration even though both share the mechanism.
        subword_weight: relative weight of character n-gram features versus
            whole-word features.
    """

    dim: int = _DEFAULT_DIM
    name: str = "hashed-ngram-256"
    subword_weight: float = 0.8

    def embed(self, text: str) -> np.ndarray:
        """Embed a term, phrase, or short sentence."""
        words = [w for w in text.lower().split() if w]
        if not words:
            return np.zeros(self.dim)
        vec = np.zeros(self.dim)
        for word in words:
            vec += _word_vector(self.name, self.dim, self.subword_weight, word)
        vec /= len(words)
        norm = np.linalg.norm(vec)
        return vec / norm if norm > 0 else vec

    def embed_many(self, texts: list[str]) -> np.ndarray:
        """Embed a batch; returns an array of shape (len(texts), dim)."""
        if not texts:
            return np.zeros((0, self.dim))
        return np.stack([self.embed(t) for t in texts])

    def similarity(self, text_a: str, text_b: str) -> float:
        """Cosine similarity of two texts under this model."""
        return cosine_similarity(self.embed(text_a), self.embed(text_b))
