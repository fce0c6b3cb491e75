"""Snapshot store: round-trip fidelity, verification, quarantine, recovery."""

from __future__ import annotations

import hashlib
import io
import json
import pathlib
import zipfile
from collections import Counter

import numpy as np
import pytest

from repro import PolicyPipeline
from repro.corpus.versions import make_version
from repro.errors import (
    SnapshotCorruptionError,
    SnapshotError,
    SnapshotNotFoundError,
)
from repro.store import (
    MODEL_ARTIFACTS,
    SnapshotStore,
    model_artifacts,
    model_from_artifacts,
)
from repro.store import snapshot as snapshot_module
from repro.store.audit import audit_structure, edge_key
from repro.store.serialize import V1_MODEL_ARTIFACTS
from repro.store.snapshot import CURRENT_NAME, MANIFEST_NAME


def assert_models_equal(a, b) -> None:
    """Full structural equality of two policy models."""
    assert a.company == b.company
    assert a.revision == b.revision
    assert [s.segment_id for s in a.extraction.segments] == [
        s.segment_id for s in b.extraction.segments
    ]
    assert a.extraction.practice_dicts() == b.extraction.practice_dicts()
    assert sorted(edge_key(e) for e in a.graph.edges()) == sorted(
        edge_key(e) for e in b.graph.edges()
    )
    assert set(a.data_taxonomy.as_edges()) == set(b.data_taxonomy.as_edges())
    assert a.node_vocabulary == b.node_vocabulary
    assert sorted(a.store.keys) == sorted(b.store.keys)
    assert np.allclose(
        a.store.get(a.store.keys[0]), b.store.get(a.store.keys[0])
    )


class TestSerializeRoundTrip:
    def test_artifacts_round_trip(self, small_model):
        restored = model_from_artifacts(model_artifacts(small_model))
        assert_models_equal(small_model, restored)

    def test_serialization_is_deterministic(self, small_model):
        assert model_artifacts(small_model) == model_artifacts(small_model)

    def test_corrupt_json_payload_raises(self, small_model):
        payloads = model_artifacts(small_model)
        payloads["graph.json"] = b"{not json"
        with pytest.raises(SnapshotCorruptionError):
            model_from_artifacts(payloads)

    def test_structurally_inconsistent_payload_raises(self, small_model):
        # A taxonomy cycle passes the hash check (hashes are recomputed
        # here) but must still fail the structural replay.
        payloads = model_artifacts(small_model)
        taxonomy = json.loads(payloads["data_taxonomy.json"])
        edges = taxonomy["edges"]
        parent, child = edges[0]
        edges.append([child, parent])
        payloads["data_taxonomy.json"] = json.dumps(taxonomy).encode()
        with pytest.raises(SnapshotCorruptionError):
            model_from_artifacts(payloads)


def _misplace_practice(payloads, field, value) -> str:
    """Rewrite one stored practice's ``field``; returns its segment id."""
    practices = json.loads(payloads["practices.json"])
    segment_id = next(sid for sid, entries in practices.items() if entries)
    practices[segment_id][0][field] = value
    payloads["practices.json"] = json.dumps(practices).encode()
    return segment_id


class TestPracticePositionsOnLoad:
    """``practices.json`` stores each practice's position, joined from its
    segment; the loader checks it against ``segments.json``."""

    @pytest.mark.parametrize(
        "field, value",
        [("segment_index", 10_000), ("section", "Nowhere"), ("segment_id", "0" * 16)],
    )
    def test_position_mismatch_is_corruption(self, small_model, field, value):
        payloads = model_artifacts(small_model)
        _misplace_practice(payloads, field, value)
        with pytest.raises(SnapshotCorruptionError, match="practices.json"):
            model_from_artifacts(payloads)

    def test_practices_of_an_unknown_segment_are_corruption(self, small_model):
        payloads = model_artifacts(small_model)
        practices = json.loads(payloads["practices.json"])
        practices["0" * 16] = practices.popitem()[1]
        payloads["practices.json"] = json.dumps(practices).encode()
        with pytest.raises(SnapshotCorruptionError, match="does not hold"):
            model_from_artifacts(payloads)

    def test_hash_valid_misplaced_practice_fails_the_load(
        self, small_model, tmp_path
    ):
        store = SnapshotStore(tmp_path)
        info = store.commit(small_model)
        payloads = {"practices.json": (info.path / "practices.json").read_bytes()}
        _misplace_practice(payloads, "segment_index", 10_000)
        damaged = payloads["practices.json"]
        (info.path / "practices.json").write_bytes(damaged)
        manifest_path = info.path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text("utf-8"))
        manifest["artifacts"]["practices.json"]["sha256"] = hashlib.sha256(
            damaged
        ).hexdigest()
        manifest_path.write_text(json.dumps(manifest), "utf-8")
        with pytest.raises(SnapshotCorruptionError) as excinfo:
            store.load()
        assert "segments.json has" in excinfo.value.reports[0].failures[0]

    def test_round_trip_keeps_practices_bytes(self, small_model):
        payloads = model_artifacts(small_model)
        restored = model_from_artifacts(payloads)
        assert model_artifacts(restored)["practices.json"] == payloads["practices.json"]


class TestSnapshotStore:
    def test_commit_load_round_trip(self, small_model, tmp_path):
        store = SnapshotStore(tmp_path)
        info = store.commit(small_model)
        assert info.snapshot_id == "snap-000001"
        result = store.load()
        assert result.clean
        assert result.snapshot_id == info.snapshot_id
        assert_models_equal(small_model, result.model)

    def test_round_trip_after_in_place_update(
        self, pipeline, small_policy_text, tmp_path
    ):
        model = pipeline.process(small_policy_text)
        version = make_version(small_policy_text, seed=0)
        pipeline.update(model, version.text, in_place=True)
        store = SnapshotStore(tmp_path)
        store.commit(model)
        assert_models_equal(model, store.load().model)

    def test_load_without_commit_raises(self, tmp_path):
        with pytest.raises(SnapshotNotFoundError):
            SnapshotStore(tmp_path).load()

    def test_verify_detects_bit_flip(self, small_model, tmp_path):
        store = SnapshotStore(tmp_path)
        info = store.commit(small_model)
        target = info.path / "practices.json"
        payload = bytearray(target.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        target.write_bytes(bytes(payload))
        failures = store.verify_snapshot(info.snapshot_id)
        assert any("practices.json" in f for f in failures)

    def test_corruption_quarantines_and_falls_back(self, small_model, tmp_path):
        store = SnapshotStore(tmp_path)
        first = store.commit(small_model)
        second = store.commit(small_model)
        (second.path / "graph.json").write_bytes(b"garbage")
        result = store.load()
        assert result.snapshot_id == first.snapshot_id
        assert result.fallback_from == second.snapshot_id
        assert len(result.quarantined) == 1
        report = result.quarantined[0]
        assert report.snapshot_id == second.snapshot_id
        assert any("graph.json" in f for f in report.failures)
        # The corrupt snapshot moved aside with a forensic report...
        quarantined = tmp_path / "quarantine" / second.snapshot_id
        assert quarantined.is_dir()
        assert json.loads((quarantined / "report.json").read_text())["failures"]
        # ...and CURRENT now points at the survivor.
        assert store.current_id() == first.snapshot_id
        assert_models_equal(small_model, result.model)

    def test_corruption_with_no_fallback_raises(self, small_model, tmp_path):
        store = SnapshotStore(tmp_path)
        info = store.commit(small_model)
        (info.path / MANIFEST_NAME).write_bytes(b"~")
        with pytest.raises(SnapshotCorruptionError) as excinfo:
            store.load()
        assert len(excinfo.value.reports) == 1
        assert excinfo.value.reports[0].snapshot_id == info.snapshot_id

    def test_transient_decode_error_is_a_load_error_not_corruption(
        self, small_model, tmp_path, monkeypatch
    ):
        # A SystemError while decoding a hash-valid snapshot is the
        # interpreter's failure, not the bytes': the snapshot must stay
        # published and the error must reach the caller.
        from repro.embeddings.store import EmbeddingStore

        store = SnapshotStore(tmp_path)
        info = store.commit(small_model)
        current = (tmp_path / CURRENT_NAME).read_bytes()

        def failing_from_bytes(payload, model=None):
            raise SystemError("transient decoder failure")

        with monkeypatch.context() as patch:
            patch.setattr(
                EmbeddingStore, "from_bytes", staticmethod(failing_from_bytes)
            )
            with pytest.raises(SystemError, match="transient decoder failure"):
                store.load()
        assert store.snapshot_ids() == [info.snapshot_id]
        assert info.path.is_dir()
        assert (tmp_path / CURRENT_NAME).read_bytes() == current
        assert not (tmp_path / "quarantine").exists()
        assert store.load().clean

    @pytest.mark.parametrize(
        "manifest", [b"[]", b'"snap"', b"\xff\xfe{}"], ids=["list", "string", "utf8"]
    )
    def test_manifest_that_is_not_a_json_object_is_quarantined(
        self, small_model, tmp_path, manifest
    ):
        store = SnapshotStore(tmp_path)
        first = store.commit(small_model)
        second = store.commit(small_model)
        (second.path / MANIFEST_NAME).write_bytes(manifest)
        failures = store.verify_snapshot(second.snapshot_id)
        assert len(failures) == 1 and "manifest of snap-000002" in failures[0]
        result = store.load()
        assert result.snapshot_id == first.snapshot_id
        assert [r.snapshot_id for r in result.quarantined] == [second.snapshot_id]

    def test_quarantined_sequence_never_reissued(self, small_model, tmp_path):
        store = SnapshotStore(tmp_path)
        info = store.commit(small_model)
        (info.path / "meta.json").write_bytes(b"garbage")
        with pytest.raises(SnapshotCorruptionError):
            store.load()
        replacement = store.commit(small_model)
        assert replacement.snapshot_id != info.snapshot_id

    def test_current_pointing_at_missing_dir_falls_back(
        self, small_model, tmp_path
    ):
        store = SnapshotStore(tmp_path)
        info = store.commit(small_model)
        (tmp_path / CURRENT_NAME).write_text("snap-999999\n")
        result = store.load()
        assert result.snapshot_id == info.snapshot_id
        assert result.fallback_from == "snap-999999"
        assert store.current_id() == info.snapshot_id

    def test_retention_prunes_oldest(self, small_model, tmp_path):
        store = SnapshotStore(tmp_path, keep_snapshots=2)
        for _ in range(4):
            store.commit(small_model)
        ids = store.snapshot_ids()
        assert len(ids) == 2
        assert store.current_id() == ids[-1] == "snap-000004"

    def test_commit_update_clears_journal(self, small_model, tmp_path):
        store = SnapshotStore(tmp_path)
        store.commit(small_model)
        store.commit_update(small_model)
        assert not (tmp_path / "JOURNAL.json").exists()
        assert store.load().clean


class TestLoadReadsOnce:
    """``load`` decodes the bytes it hashed, read once per artifact."""

    def test_clean_load_reads_each_artifact_once(
        self, small_model, tmp_path, monkeypatch
    ):
        store = SnapshotStore(tmp_path)
        info = store.commit(small_model)
        reads: Counter = Counter()
        real_open = pathlib.Path.open

        def counting_open(path, *args, **kwargs):
            if path.parent == info.path:
                reads[path.name] += 1
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "open", counting_open)
        assert store.load().clean
        assert {name: reads[name] for name in MODEL_ARTIFACTS} == {
            name: 1 for name in MODEL_ARTIFACTS
        }

    def test_rewrite_after_hashing_does_not_reach_the_model(
        self, small_model, tmp_path, monkeypatch
    ):
        store = SnapshotStore(tmp_path)
        info = store.commit(small_model)
        meta_path = info.path / "meta.json"
        verified = meta_path.read_bytes()
        meta = json.loads(verified)
        meta["revision"] += 41
        rewritten = json.dumps(meta).encode("utf-8")
        real_sha256 = snapshot_module._sha256

        def sha256_then_rewrite(payload):
            digest = real_sha256(payload)
            if payload == verified:
                meta_path.write_bytes(rewritten)
            return digest

        monkeypatch.setattr(snapshot_module, "_sha256", sha256_then_rewrite)
        result = store.load()
        assert meta_path.read_bytes() == rewritten
        assert result.clean
        assert result.model.revision == small_model.revision
        assert_models_equal(small_model, result.model)


class TestV2EmbeddingsArtifact:
    def test_v2_load_never_unpickles(self, small_model, tmp_path, monkeypatch):
        import pickle

        store = SnapshotStore(tmp_path)
        store.commit(small_model)

        def refuse(*args, **kwargs):
            raise AssertionError("an embeddings.bin load reached pickle or np.load")

        for module, name in ((pickle, "load"), (pickle, "loads"), (np, "load")):
            monkeypatch.setattr(module, name, refuse)
        result = store.load()
        assert result.clean
        assert_models_equal(small_model, result.model)

    def test_hash_valid_malformed_embeddings_are_corruption(
        self, small_model, tmp_path
    ):
        # A matrix one row short, with a manifest hash to match: the hash
        # check passes, the decode must not.
        store = SnapshotStore(tmp_path)
        info = store.commit(small_model)
        path = info.path / "embeddings.bin"
        damaged = path.read_bytes()[: -8 * small_model.store.model.dim]
        path.write_bytes(damaged)
        manifest_path = info.path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text("utf-8"))
        manifest["artifacts"]["embeddings.bin"]["sha256"] = hashlib.sha256(
            damaged
        ).hexdigest()
        manifest_path.write_text(json.dumps(manifest), "utf-8")
        with pytest.raises(SnapshotCorruptionError) as excinfo:
            store.load()
        assert "raw embedding matrix" in excinfo.value.reports[0].failures[0]


def _v1_embeddings(store, savez) -> bytes:
    """``EmbeddingStore.to_bytes`` as format-version-1 snapshots wrote it.

    ``np.savez_compressed`` is what snapshots before stored archives
    wrote, ``np.savez`` what the last version-1 writer wrote.
    """
    buffer = io.BytesIO()
    keys, matrix = store.snapshot()
    savez(
        buffer,
        keys=np.array(keys, dtype=object),
        matrix=matrix,
        model_name=np.array(store.model.name),
        dim=np.array(store.model.dim),
    )
    return buffer.getvalue()


def _rewrite_as_v1(snapshot_dir: pathlib.Path, embeddings: bytes) -> None:
    """Turn a committed snapshot into the version-1 layout, manifest included.

    A version-1 manifest also lists the entity taxonomy, which no reader
    decodes; an empty one stands in for it.
    """
    (snapshot_dir / "embeddings.bin").unlink()
    (snapshot_dir / "embeddings.npz").write_bytes(embeddings)
    (snapshot_dir / "entity_taxonomy.json").write_text(
        json.dumps({"root": "entity", "edges": []}, indent=1), "utf-8"
    )
    manifest_path = snapshot_dir / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text("utf-8"))
    manifest["format_version"] = 1
    manifest["artifacts"] = {
        name: {
            "sha256": hashlib.sha256((snapshot_dir / name).read_bytes()).hexdigest(),
            "bytes": (snapshot_dir / name).stat().st_size,
        }
        for name in V1_MODEL_ARTIFACTS
    }
    manifest_path.write_text(json.dumps(manifest, indent=1), "utf-8")


def _compression(path) -> set[int]:
    with zipfile.ZipFile(path) as archive:
        return {entry.compress_type for entry in archive.infolist()}


class TestDeflatedEmbeddingsCompatibility:
    """Version-1 snapshots, with deflated or stored ``embeddings.npz``, still load."""

    QUESTIONS = (
        "Acme collects the email address.",
        "Acme sells your contact information.",
        "Acme shares location information with advertisers.",
        "Acme shares the usage information with analytics providers.",
    )

    def test_deflated_snapshot_loads_like_a_fresh_one(
        self, pipeline, small_model, tmp_path
    ):
        self._check_v1_loads_like_fresh(
            pipeline, small_model, tmp_path, np.savez_compressed, zipfile.ZIP_DEFLATED
        )

    def test_stored_v1_snapshot_loads_like_a_fresh_one(
        self, pipeline, small_model, tmp_path
    ):
        self._check_v1_loads_like_fresh(
            pipeline, small_model, tmp_path, np.savez, zipfile.ZIP_STORED
        )

    def _check_v1_loads_like_fresh(
        self, pipeline, small_model, tmp_path, savez, compression
    ):
        old_store = SnapshotStore(tmp_path / "old")
        old_info = old_store.commit(small_model)
        _rewrite_as_v1(old_info.path, _v1_embeddings(small_model.store, savez))
        fresh_store = SnapshotStore(tmp_path / "fresh")
        fresh_info = fresh_store.commit(small_model)
        assert _compression(old_info.path / "embeddings.npz") == {compression}
        assert json.loads((fresh_info.path / MANIFEST_NAME).read_text())[
            "format_version"
        ] == snapshot_module.FORMAT_VERSION
        assert set(MODEL_ARTIFACTS) == {
            p.name for p in fresh_info.path.iterdir() if p.name != MANIFEST_NAME
        }

        assert old_store.verify_snapshot(old_info.snapshot_id) == []
        result = old_store.load()
        assert result.clean
        old, fresh = result.model, fresh_store.load().model
        assert old.store.keys == fresh.store.keys == small_model.store.keys
        assert old.store.model == fresh.store.model == small_model.store.model
        expected = small_model.store.matrix()
        for matrix in (old.store.matrix(), fresh.store.matrix()):
            assert matrix.dtype == expected.dtype
            assert matrix.shape == expected.shape
            assert matrix.tobytes() == expected.tobytes()
        assert audit_structure(old).passed
        for question in self.QUESTIONS:
            assert (
                pipeline.query(old, question).verdict
                == pipeline.query(fresh, question).verdict
            ), question

    def test_v1_manifest_must_list_the_v1_artifacts(self, small_model, tmp_path):
        store = SnapshotStore(tmp_path)
        info = store.commit(small_model)
        manifest_path = info.path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text("utf-8"))
        manifest["format_version"] = 1  # but still lists embeddings.bin
        manifest_path.write_text(json.dumps(manifest), "utf-8")
        assert store.verify_snapshot(info.snapshot_id) == [
            "manifest artifact list does not match the format"
        ]


class TestEmbeddingModelPersists:
    """A snapshot keeps the embedding model's configuration, subword weight too."""

    def test_subword_weight_survives_a_snapshot(
        self, small_policy_text, tmp_path
    ):
        from repro.embeddings import EmbeddingModel

        pipeline = PolicyPipeline(
            embedding_model=EmbeddingModel(subword_weight=0.5)
        )
        model = pipeline.process(small_policy_text)
        pipeline.save_model(model, tmp_path)
        loaded = pipeline.load_model(tmp_path)
        assert loaded.store.model == model.store.model
        assert loaded.store.model.subword_weight == 0.5
        question = "email addresses of users"
        assert (
            loaded.store.model.embed(question).tobytes()
            == model.store.model.embed(question).tobytes()
        )


class TestPipelinePersistence:
    def test_save_and_load_model(self, small_model, tmp_path):
        pipeline = PolicyPipeline()
        pipeline.save_model(small_model, tmp_path)
        loaded = pipeline.load_model(tmp_path)
        assert_models_equal(small_model, loaded)
        assert pipeline.metrics.snapshot_saves == 1
        assert pipeline.metrics.snapshot_loads == 1

    def test_load_model_rebuilds_from_policy_text(
        self, small_policy_text, tmp_path
    ):
        pipeline = PolicyPipeline()
        model = pipeline.load_model(tmp_path, policy_text=small_policy_text)
        assert model.extraction.num_practices > 0
        assert pipeline.metrics.snapshot_rebuilds == 1
        # The rebuild was re-committed: the next start is warm.
        again = pipeline.load_model(tmp_path)
        assert_models_equal(model, again)
        assert pipeline.metrics.snapshot_loads == 1

    def test_load_model_without_fallback_raises(self, tmp_path):
        with pytest.raises(SnapshotError):
            PolicyPipeline().load_model(tmp_path)

    def test_loaded_model_answers_queries_identically(
        self, pipeline, small_model, tmp_path
    ):
        pipeline.save_model(small_model, tmp_path)
        loaded = pipeline.load_model(tmp_path)
        for question in (
            "Acme collects the email address.",
            "Acme sells your contact information.",
            "Acme shares location information with advertisers.",
        ):
            cold = pipeline.query(small_model, question)
            warm = pipeline.query(loaded, question)
            assert cold.verdict == warm.verdict, question

    def test_save_artifacts_leaves_no_temp_files(self, small_model, tmp_path):
        PolicyPipeline().save_artifacts(small_model, tmp_path)
        names = {p.name for p in tmp_path.iterdir()}
        assert "segments.json" in names and "embeddings.bin" in names
        assert not any(n.startswith(".") or ".tmp" in n for n in names)
        # Re-dumping over the same directory is safe and idempotent.
        PolicyPipeline().save_artifacts(small_model, tmp_path)
        assert {p.name for p in tmp_path.iterdir()} == names
