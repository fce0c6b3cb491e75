"""Unit tests for the embedding substrate."""

import json
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embeddings import (
    EmbeddingModel,
    EmbeddingStore,
    SearchHit,
    cosine_similarity,
    edge_text,
    top_k,
)
from repro.embeddings import model as model_module
from repro.embeddings.search import DEFAULT_TOP_K


@pytest.fixture(scope="module")
def model():
    return EmbeddingModel()


class TestEmbeddingModel:
    def test_deterministic_across_instances(self):
        a = EmbeddingModel().embed("email address")
        b = EmbeddingModel().embed("email address")
        assert np.allclose(a, b)

    def test_unit_norm(self, model):
        vec = model.embed("location information")
        assert np.isclose(np.linalg.norm(vec), 1.0)

    def test_empty_text_is_zero_vector(self, model):
        assert np.allclose(model.embed(""), 0.0)

    def test_shared_word_increases_similarity(self, model):
        related = model.similarity("email address", "email")
        unrelated = model.similarity("email address", "gps coordinates")
        assert related > unrelated

    def test_morphological_variants_close(self, model):
        assert model.similarity("cookies", "cookie") > 0.7

    def test_phrase_extension_close(self, model):
        assert model.similarity("location", "location information") > 0.5

    def test_self_similarity_is_one(self, model):
        assert np.isclose(model.similarity("data", "data"), 1.0)

    def test_case_insensitive(self, model):
        assert np.isclose(model.similarity("Email", "email"), 1.0)

    def test_different_model_names_differ(self):
        a = EmbeddingModel(name="model-a").embed("email")
        b = EmbeddingModel(name="model-b").embed("email")
        assert not np.allclose(a, b)

    def test_embed_many_shape(self, model):
        matrix = model.embed_many(["a", "b", "c"])
        assert matrix.shape == (3, model.dim)

    def test_embed_many_empty(self, model):
        assert model.embed_many([]).shape == (0, model.dim)


class TestSharedWordVectors:
    """Word vectors are memoized once per process, per model configuration."""

    WORDS = ("email", "addresses", "x", "location", "third-party")

    def test_shared_vectors_equal_a_fresh_computation(self):
        model = EmbeddingModel(subword_weight=0.6)
        shared = [model.embed(w).tobytes() for w in self.WORDS]
        phrase = model.embed(" ".join(self.WORDS)).tobytes()
        model_module._word_vector.cache_clear()
        fresh = EmbeddingModel(subword_weight=0.6)
        assert [fresh.embed(w).tobytes() for w in self.WORDS] == shared
        assert fresh.embed(" ".join(self.WORDS)).tobytes() == phrase
        for word in self.WORDS:
            key = (fresh.name, fresh.dim, fresh.subword_weight, word)
            assert (
                model_module._word_vector(*key).tobytes()
                == model_module._word_vector.__wrapped__(*key).tobytes()
            )

    def test_shared_vectors_are_read_only(self):
        model = EmbeddingModel()
        model.embed("email")
        vec = model_module._word_vector(model.name, model.dim, model.subword_weight, "email")
        assert not vec.flags.writeable
        with pytest.raises(ValueError):
            vec[0] = 1.0
        # A phrase embedding is the caller's own, writable array.
        assert model.embed("email").flags.writeable

    def test_configurations_never_share_vectors(self):
        configs = [
            EmbeddingModel(),
            EmbeddingModel(subword_weight=0.5),
            EmbeddingModel(name="other-model"),
            EmbeddingModel(dim=64),
        ]
        vectors = [
            model_module._word_vector(m.name, m.dim, m.subword_weight, "email")
            for m in configs
        ]
        for i, a in enumerate(vectors):
            for b in vectors[i + 1 :]:
                assert a is not b
                assert a.shape != b.shape or not np.allclose(a, b)
        embedded = [m.embed("email") for m in configs]
        for i, a in enumerate(embedded):
            for b in embedded[i + 1 :]:
                assert a.shape != b.shape or not np.allclose(a, b)


class TestCosineSimilarity:
    def test_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_zero_vector_yields_zero(self):
        assert cosine_similarity(np.zeros(3), np.ones(3)) == 0.0

    def test_identical(self):
        v = np.array([0.3, 0.4])
        assert np.isclose(cosine_similarity(v, v), 1.0)


class TestRowBuffer:
    """Adds append rows in place; earlier views never change."""

    KEYS = [f"data item {i}" for i in range(70)]

    def test_views_keep_their_bytes_across_appends_and_regrowth(self, model):
        store = EmbeddingStore(model)
        views = []
        for i, key in enumerate(self.KEYS):
            store.add(key)
            view = store.matrix() if i % 2 else store.snapshot()[1]
            views.append((view, view.tobytes()))
        for view, data in views:
            assert view.tobytes() == data
        assert views[0][0].shape == (1, model.dim)

    def test_matrix_stacks_the_rows(self, model):
        store = EmbeddingStore(model)
        for i, key in enumerate(self.KEYS):
            store.add(key)
            if i % 9 == 0:
                store.matrix()
        expected = np.stack([model.embed(key) for key in self.KEYS])
        assert np.array_equal(store.matrix(), expected)
        assert store.matrix().flags.c_contiguous

    def test_bytes_equal_a_store_built_in_one_go(self, model):
        interleaved = EmbeddingStore(model)
        for key in self.KEYS:
            interleaved.add(key)
            interleaved.snapshot()
        whole = EmbeddingStore(model)
        whole.add_many(self.KEYS)
        assert interleaved.to_bytes() == whole.to_bytes()

    def test_decoded_store_appends_like_a_fresh_one(self, model):
        half = len(self.KEYS) // 2
        seeded = EmbeddingStore(model)
        seeded.add_many(self.KEYS[:half])
        loaded = EmbeddingStore.from_bytes(seeded.to_bytes())
        decoded_view = loaded.matrix()
        data = decoded_view.tobytes()
        loaded.add_many(self.KEYS[half:])
        whole = EmbeddingStore(model)
        whole.add_many(self.KEYS)
        assert loaded.to_bytes() == whole.to_bytes()
        assert decoded_view.tobytes() == data
        assert not decoded_view.flags.writeable


class TestEmbeddingStore:
    def test_add_and_contains(self, model):
        store = EmbeddingStore(model)
        store.add("email")
        assert "email" in store
        assert len(store) == 1

    def test_add_idempotent(self, model):
        store = EmbeddingStore(model)
        store.add("email")
        store.add("email")
        assert len(store) == 1

    def test_get_embeds_on_demand(self, model):
        store = EmbeddingStore(model)
        vec = store.get("new term")
        assert "new term" in store
        assert np.isclose(np.linalg.norm(vec), 1.0)

    def test_matrix_rows_match_keys(self, model):
        store = EmbeddingStore(model)
        store.add_many(["a", "b"])
        matrix = store.matrix()
        assert matrix.shape[0] == 2
        assert np.allclose(matrix[0], store.get("a"))

    def test_save_load_round_trip(self, model, tmp_path):
        store = EmbeddingStore(model)
        store.add_many(["email", "phone number"])
        path = tmp_path / "store.bin"
        store.save(path)
        loaded = EmbeddingStore.load(path)
        assert loaded.keys == store.keys
        assert np.allclose(loaded.matrix(), store.matrix())

    def test_save_load_empty_store(self, model, tmp_path):
        store = EmbeddingStore(model)
        path = tmp_path / "empty.bin"
        store.save(path)
        loaded = EmbeddingStore.load(path)
        assert loaded.keys == []
        assert len(loaded) == 0
        assert loaded.matrix().shape == (0, model.dim)

    def test_save_overwrites_existing_file(self, model, tmp_path):
        path = tmp_path / "store.bin"
        first = EmbeddingStore(model)
        first.add_many(["email", "phone number", "location"])
        first.save(path)
        second = EmbeddingStore(model)
        second.add("cookie")
        second.save(path)
        loaded = EmbeddingStore.load(path)
        assert loaded.keys == ["cookie"]

    def test_save_leaves_no_temp_files(self, model, tmp_path):
        store = EmbeddingStore(model)
        store.add("email")
        store.save(tmp_path / "store.bin")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["store.bin"]

    def test_bytes_round_trip(self, model):
        store = EmbeddingStore(model)
        store.add_many(["email", "location"])
        clone = EmbeddingStore.from_bytes(store.to_bytes())
        assert clone.keys == store.keys
        assert np.allclose(clone.matrix(), store.matrix())

    def test_from_bytes_reuses_supplied_model(self, model):
        store = EmbeddingStore(model)
        store.add("email")
        clone = EmbeddingStore.from_bytes(store.to_bytes(), model=model)
        assert clone.model is model

    def test_bytes_keep_the_model_configuration(self):
        model = EmbeddingModel(dim=64, name="other-model", subword_weight=0.5)
        store = EmbeddingStore(model)
        store.add_many(["email", "location"])
        clone = EmbeddingStore.from_bytes(store.to_bytes())
        assert clone.model == model
        assert clone.matrix().tobytes() == store.matrix().tobytes()

    def test_empty_store_bytes_round_trip(self, model):
        clone = EmbeddingStore.from_bytes(EmbeddingStore(model).to_bytes())
        assert clone.keys == []
        assert clone.matrix().shape == (0, model.dim)

    def test_decoded_matrix_is_an_aligned_read_only_view(self, model):
        store = EmbeddingStore(model)
        store.add_many(["email", "location"])
        matrix = EmbeddingStore.from_bytes(store.to_bytes()).matrix()
        assert not matrix.flags.writeable
        assert matrix.flags.aligned and matrix.flags.c_contiguous
        assert matrix.dtype == np.float64

    def test_decode_never_unpickles(self, model, monkeypatch):
        store = EmbeddingStore(model)
        store.add_many(["email", "location"])
        payload = store.to_bytes()

        def refuse(*args, **kwargs):
            raise AssertionError("a raw embedding decode reached pickle or np.load")

        for module, name in ((pickle, "load"), (pickle, "loads"), (np, "load")):
            monkeypatch.setattr(module, name, refuse)
        assert EmbeddingStore.from_bytes(payload).keys == store.keys

    def test_loaded_read_only_store_accepts_add(self, model):
        keys = ["email", "phone number", "location"]
        store = EmbeddingStore(model)
        store.add_many(keys)
        loaded = EmbeddingStore.from_bytes(store.to_bytes())
        assert not loaded.matrix().flags.writeable
        loaded.add("cookie")
        loaded.add("email")  # already present: no new row
        fresh = EmbeddingStore(model)
        fresh.add_many(keys + ["cookie"])
        assert loaded.keys == fresh.keys
        assert loaded.get("cookie").tobytes() == fresh.get("cookie").tobytes()
        assert loaded.matrix().tobytes() == fresh.matrix().tobytes()
        assert loaded.matrix().flags.writeable
        for query in ("email", "cookie data", "location information"):
            assert top_k(loaded, query) == top_k(fresh, query)

    @pytest.mark.parametrize(
        "damage",
        [
            "magic",
            "short_matrix",
            "long_matrix",
            "duplicate_keys",
            "header",
            "header_list",
            "no_weight",
        ],
    )
    def test_malformed_payload_is_refused(self, model, damage):
        store = EmbeddingStore(model)
        store.add_many(["email", "location"])
        payload = store.to_bytes()
        prefix = 16
        (length,) = struct.unpack_from("<Q", payload, 8)
        if damage == "magic":
            payload = b"PK" + payload[2:]
        elif damage == "short_matrix":
            payload = payload[:-8]
        elif damage == "long_matrix":
            payload = payload + bytes(8)
        elif damage in ("duplicate_keys", "header_list", "no_weight"):
            header = json.loads(payload[prefix : prefix + length])
            if damage == "duplicate_keys":
                header["keys"] = ["email", "email"]
            elif damage == "header_list":
                header = [header]
            else:
                del header["subword_weight"]
            raw = json.dumps(header).encode("utf-8")
            raw += b" " * (-(prefix + len(raw)) % 8)
            payload = (
                payload[:8]
                + struct.pack("<Q", len(raw))
                + raw
                + payload[prefix + length :]
            )
        else:
            payload = payload[:prefix] + b"[" + payload[prefix + 1 :]
        with pytest.raises(ValueError):
            EmbeddingStore.from_bytes(payload)


class TestTopK:
    def test_exact_match_ranks_first(self, model):
        store = EmbeddingStore(model)
        store.add_many(["email", "phone number", "location"])
        hits = top_k(store, "email", k=3)
        assert hits[0].key == "email"
        assert np.isclose(hits[0].score, 1.0)

    def test_k_limits_results(self, model):
        store = EmbeddingStore(model)
        store.add_many([f"term {i}" for i in range(20)])
        assert len(top_k(store, "term 1", k=5)) == 5

    def test_min_score_filters(self, model):
        store = EmbeddingStore(model)
        store.add_many(["email", "zebra crossing"])
        hits = top_k(store, "email", k=10, min_score=0.9)
        assert [h.key for h in hits] == ["email"]

    def test_empty_store(self, model):
        assert top_k(EmbeddingStore(model), "email") == []

    def test_scores_descending(self, model):
        store = EmbeddingStore(model)
        store.add_many(["email address", "email", "phone number", "gps location"])
        hits = top_k(store, "email", k=4)
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)


def _top_k_by_full_sort(
    store: EmbeddingStore, query: str, k: int = DEFAULT_TOP_K, *, min_score: float = 0.0
) -> list[SearchHit]:
    """``top_k`` as it was before candidate selection: a sort of every key."""
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
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], keys[i]))
    hits = []
    for i in order[:k]:
        score = float(scores[i])
        if score < min_score:
            break
        hits.append(SearchHit(key=keys[i], score=score))
    return hits


class _TableModel:
    """Embeds each text as a fixed vector from a table (for exact ties)."""

    def __init__(self, table: dict[str, np.ndarray], dim: int) -> None:
        self.table = table
        self.dim = dim

    def embed(self, text: str) -> np.ndarray:
        return self.table[text]


_DIM = 3
_SMALL_VECTORS = st.lists(
    st.integers(min_value=-2, max_value=2), min_size=_DIM, max_size=_DIM
).map(lambda v: np.array(v, dtype=np.float64))


def _as_exact(hits: list[SearchHit]) -> list[tuple[str, str]]:
    return [(h.key, repr(h.score)) for h in hits]


class TestTopKMatchesFullSort:
    """Candidate selection returns exactly the hits a sort of every key does."""

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.text(alphabet="abc", min_size=1, max_size=3), _SMALL_VECTORS),
            max_size=25,
            unique_by=lambda row: row[0],
        ),
        query=_SMALL_VECTORS,
        k=st.integers(min_value=-1, max_value=30),
        min_score=st.sampled_from([-2.0, -0.5, 0.0, 0.4, 0.5, 1.0]),
    )
    def test_hits_identical_to_full_sort(self, rows, query, k, min_score):
        table = {key: vec for key, vec in rows}
        table["?query"] = query
        store = EmbeddingStore(_TableModel(table, _DIM))
        store.add_many([key for key, _vec in rows])
        assert _as_exact(top_k(store, "?query", k, min_score=min_score)) == _as_exact(
            _top_k_by_full_sort(store, "?query", k, min_score=min_score)
        )

    @pytest.mark.parametrize("k", [1, 3, 10, 50])
    def test_real_embeddings_with_tied_keys(self, model, k):
        # Case and word-order variants embed identically: exact score ties.
        keys = [
            "email", "Email", "EMAIL", "email address", "address email",
            "phone number", "number phone", "location", "Location", "cookie",
        ]
        store = EmbeddingStore(model)
        store.add_many(keys)
        for query in ("email", "phone", "location email", "unrelated"):
            for min_score in (0.0, 0.3):
                assert _as_exact(
                    top_k(store, query, k, min_score=min_score)
                ) == _as_exact(_top_k_by_full_sort(store, query, k, min_score=min_score))


class TestEdgeText:
    def test_format(self):
        assert edge_text("user", "provide", "email") == "user provide email"
