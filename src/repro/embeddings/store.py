"""Embedding store: pre-computed vectors for all graph elements.

The paper pre-computes embeddings for every node and edge of the policy
graphs and caches them alongside the other pipeline artifacts.  The store
keeps an insertion-ordered matrix for fast batched cosine search and
persists it as one raw payload (see :meth:`EmbeddingStore.to_bytes`).

The store is thread-safe: concurrent batch queries read (and lazily
insert) vectors from many workers, so all index mutations and matrix
reads are lock-guarded.  Embedding itself happens outside the lock — the
model is deterministic, so a racing double-computation of the same key
yields identical vectors and only one wins the insert.
"""

from __future__ import annotations

import io
import json
import struct
import threading

import numpy as np

from repro.embeddings.model import EmbeddingModel

#: First bytes of a raw embedding payload.
_MAGIC = b"REMBED\x00\x01"
#: Byte length of the JSON header that follows the magic.
_HEADER_LENGTH = struct.Struct("<Q")
_PREFIX = len(_MAGIC) + _HEADER_LENGTH.size
#: Row-major little-endian float64: the matrix's on-disk element type.
_DTYPE = np.dtype("<f8")


class EmbeddingStore:
    """Ordered map of text keys to embedding vectors."""

    def __init__(self, model: EmbeddingModel | None = None) -> None:
        self.model = model or EmbeddingModel()
        self._lock = threading.RLock()
        self._keys: list[str] = []
        self._index: dict[str, int] = {}
        # Row i of ``_rows`` is the vector of ``_keys[i]``; rows past
        # ``len(_keys)`` are spare capacity.  A filled row is never written
        # again, so views handed out by :meth:`matrix` stay valid while
        # later adds fill the spare rows or move to a larger buffer.
        self._rows: np.ndarray = np.zeros((0, self.model.dim))

    def __len__(self) -> int:
        with self._lock:
            return len(self._keys)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._index

    @property
    def keys(self) -> list[str]:
        with self._lock:
            return list(self._keys)

    def add(self, key: str) -> np.ndarray:
        """Embed and store ``key``; idempotent and thread-safe.

        The vector lands in the next spare row (see :meth:`_reserve`).
        """
        with self._lock:
            idx = self._index.get(key)
            if idx is not None:
                return self._rows[idx]
        vec = self.model.embed(key)
        with self._lock:
            idx = self._index.get(key)
            if idx is not None:  # another thread won the race
                return self._rows[idx]
            n = len(self._keys)
            self._reserve(n + 1)
            self._rows[n] = vec
            self._index[key] = n
            self._keys.append(key)
            return vec

    def add_many(self, keys: list[str]) -> None:
        """:meth:`add` each key in order, reserving rows for all at once."""
        fresh = dict.fromkeys(keys)
        with self._lock:
            self._reserve(len(self._keys) + sum(k not in self._index for k in fresh))
        for key in fresh:
            self.add(key)

    def _reserve(self, rows: int) -> None:
        """Make room for ``rows`` rows in all (caller holds the lock).

        When the buffer is too small, the filled rows move to one of
        ``rows`` rows or of twice the old capacity, whichever is more: a
        fresh store filled by one :meth:`add_many` holds no spare row, and
        ``n`` rows added a few at a time copy O(n) rows in all.  A store
        decoded from a payload holds no spare row either, so its first
        add moves it off the read-only payload.
        """
        if rows > len(self._rows):
            n = len(self._keys)
            grown = np.empty((max(rows, 2 * len(self._rows)), self.model.dim))
            grown[:n] = self._rows[:n]
            self._rows = grown

    def get(self, key: str) -> np.ndarray:
        """Vector for ``key``, embedding on demand if absent."""
        with self._lock:
            idx = self._index.get(key)
            if idx is not None:
                return self._rows[idx]
        return self.add(key)

    def matrix(self) -> np.ndarray:
        """All stored vectors stacked row-wise: a view, not a copy.

        Later adds never change the rows of a view already returned.
        """
        with self._lock:
            return self._rows[: len(self._keys)]

    def snapshot(self) -> tuple[list[str], np.ndarray]:
        """Consistent (keys, matrix) pair taken under one lock hold.

        Concurrent searchers need the key list and the row matrix to line
        up; grabbing them in two separate calls could interleave with an
        insert.
        """
        with self._lock:
            return list(self._keys), self.matrix()

    def to_bytes(self) -> bytes:
        """Serialize keys, vectors and model configuration (snapshot payload).

        The payload is the 8-byte magic, the little-endian ``uint64``
        length of a JSON header, the header, and the row-major ``<f8``
        matrix, one row per key in insertion order.  The header holds
        ``keys``, ``dim``, ``model_name`` and ``subword_weight``; spaces
        pad it so the matrix starts 8-byte aligned.  Decoding is one
        :func:`json.loads` and one :func:`numpy.frombuffer`, no zip
        archive and no pickle.
        """
        keys, matrix = self.snapshot()
        header = json.dumps(
            {
                "keys": keys,
                "dim": self.model.dim,
                "model_name": self.model.name,
                "subword_weight": self.model.subword_weight,
            },
            separators=(",", ":"),
        ).encode("ascii")
        header += b" " * (-(_PREFIX + len(header)) % _DTYPE.itemsize)
        return b"".join(
            (
                _MAGIC,
                _HEADER_LENGTH.pack(len(header)),
                header,
                np.ascontiguousarray(matrix, dtype=_DTYPE).tobytes(),
            )
        )

    @classmethod
    def from_bytes(
        cls, payload: bytes, model: EmbeddingModel | None = None
    ) -> "EmbeddingStore":
        """Reconstruct a store from :meth:`to_bytes` output.

        The matrix is a read-only view of ``payload``, not a copy; the
        first key added later copies its rows into a writable buffer.  Raises
        :class:`ValueError` on a payload that is not a well-formed raw
        embedding store.  ``model`` overrides the stored configuration.
        """
        if payload[: len(_MAGIC)] != _MAGIC or len(payload) < _PREFIX:
            raise ValueError("not a raw embedding payload (bad magic)")
        (length,) = _HEADER_LENGTH.unpack_from(payload, len(_MAGIC))
        start = _PREFIX + length
        header = json.loads(payload[_PREFIX:start].decode("utf-8"))
        if not isinstance(header, dict):
            raise ValueError("raw embedding header is not a JSON object")
        keys, dim = header.get("keys"), header.get("dim")
        name, weight = header.get("model_name"), header.get("subword_weight")
        if not (
            isinstance(keys, list)
            and all(isinstance(key, str) for key in keys)
            and isinstance(dim, int)
            and dim > 0
            and isinstance(name, str)
            and isinstance(weight, (int, float))
        ):
            raise ValueError("raw embedding header is malformed")
        if len(payload) - start != len(keys) * dim * _DTYPE.itemsize:
            raise ValueError(
                f"raw embedding matrix holds {len(payload) - start} bytes, "
                f"expected {len(keys)} x {dim} float64"
            )
        store = cls(
            model
            or EmbeddingModel(dim=dim, name=name, subword_weight=float(weight))
        )
        matrix = np.frombuffer(
            payload, dtype=_DTYPE, count=len(keys) * dim, offset=start
        )
        store._adopt(keys, matrix.reshape(len(keys), dim))
        return store

    @classmethod
    def from_npz_bytes(cls, payload: bytes) -> "EmbeddingStore":
        """Decode the ``embeddings.npz`` artifact of a format-version-1 snapshot.

        Those archives hold ``keys`` (a pickled object array), ``matrix``,
        ``model_name`` and ``dim``, stored or deflated; they carry no
        subword weight, so the model gets the default.  Only the snapshot
        reader calls this, and only for version-1 manifests.
        """
        data = np.load(io.BytesIO(payload), allow_pickle=True)
        store = cls(EmbeddingModel(dim=int(data["dim"]), name=str(data["model_name"])))
        keys = [str(k) for k in data["keys"]]
        if keys:
            store._adopt(keys, data["matrix"])
        return store

    def _adopt(self, keys: list[str], matrix: np.ndarray) -> None:
        """Install decoded ``keys`` and their ``matrix`` rows (fresh store)."""
        index = dict(zip(keys, range(len(keys))))
        if len(index) != len(keys) or len(matrix) != len(keys):
            raise ValueError("embedding keys are duplicated or do not match the rows")
        self._keys = keys
        self._index = index
        self._rows = matrix
