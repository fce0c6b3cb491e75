"""Snapshot store: round-trip fidelity, verification, quarantine, recovery."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import PolicyPipeline
from repro.corpus.versions import make_version
from repro.errors import (
    SnapshotCorruptionError,
    SnapshotError,
    SnapshotNotFoundError,
)
from repro.store import SnapshotStore, model_artifacts, model_from_artifacts
from repro.store.audit import edge_key
from repro.store.snapshot import CURRENT_NAME, MANIFEST_NAME


def assert_models_equal(a, b) -> None:
    """Full structural equality of two policy models."""
    assert a.company == b.company
    assert a.revision == b.revision
    assert [s.segment_id for s in a.extraction.segments] == [
        s.segment_id for s in b.extraction.segments
    ]
    assert [p.as_dict() for p in a.extraction.practices] == [
        p.as_dict() for p in b.extraction.practices
    ]
    assert sorted(edge_key(e) for e in a.graph.edges()) == sorted(
        edge_key(e) for e in b.graph.edges()
    )
    assert set(a.data_taxonomy.as_edges()) == set(b.data_taxonomy.as_edges())
    assert set(a.entity_taxonomy.as_edges()) == set(b.entity_taxonomy.as_edges())
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
        assert "segments.json" in names and "embeddings.npz" in names
        assert not any(n.startswith(".") or ".tmp" in n for n in names)
        # Re-dumping over the same directory is safe and idempotent.
        PolicyPipeline().save_artifacts(small_model, tmp_path)
        assert {p.name for p in tmp_path.iterdir()} == names
