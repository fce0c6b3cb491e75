"""Committed format-version-1 and -2 snapshots still load to the models they held.

``tests/data/v1_snapshot/`` was written by the last version-1 writer and
``tests/data/v2_snapshot/`` by the last version-2 writer; the
``*.digest.json`` beside each pins the model it loaded back (see
``tests/data/make_v1_snapshot.py`` and ``make_v2_snapshot.py``).  The
current reader must rebuild the same model from each, and a round trip
through the current writer must too.  Both formats list
``entity_taxonomy.json``, which the reader never decodes but the store
still hash-verifies.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from repro import PolicyPipeline
from repro.errors import SnapshotCorruptionError
from repro.integrity import run_fsck
from repro.store import MODEL_ARTIFACTS, SnapshotStore
from repro.store.audit import audit_structure
from repro.store.serialize import V1_MODEL_ARTIFACTS, V2_MODEL_ARTIFACTS
from repro.store.snapshot import FORMAT_VERSION, MANIFEST_NAME

DATA = Path(__file__).parent / "data"


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "make_v1_snapshot", DATA / "make_v1_snapshot.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


model_digest = _load_generator().model_digest
EXPECTED = json.loads((DATA / "v1_snapshot.digest.json").read_text("utf-8"))
EXPECTED_V2 = json.loads((DATA / "v2_snapshot.digest.json").read_text("utf-8"))


def _copy(fixture: str, root: Path) -> SnapshotStore:
    # A copy: a failed load would quarantine the committed fixture.
    shutil.copytree(DATA / fixture, root)
    return SnapshotStore(root)


@pytest.fixture()
def v1_store(tmp_path) -> SnapshotStore:
    return _copy("v1_snapshot", tmp_path / "v1")


@pytest.fixture()
def v2_store(tmp_path) -> SnapshotStore:
    return _copy("v2_snapshot", tmp_path / "v2")


def _manifest(store: SnapshotStore) -> dict:
    path = store.snapshots_dir / store.current_id() / MANIFEST_NAME
    return json.loads(path.read_text("utf-8"))


def test_fixture_is_a_v1_snapshot(v1_store):
    manifest = _manifest(v1_store)
    assert manifest["format_version"] == 1
    assert set(manifest["artifacts"]) == set(V1_MODEL_ARTIFACTS)


def test_v1_snapshot_loads_to_its_digest(v1_store):
    result = v1_store.load()
    assert result.clean
    assert model_digest(result.model) == EXPECTED
    assert audit_structure(result.model).passed


def _rewritten(model, root: Path) -> SnapshotStore:
    """``model`` committed by the current writer, which writes no entity
    taxonomy."""
    store = SnapshotStore(root)
    store.commit(model)
    manifest = _manifest(store)
    assert manifest["format_version"] == FORMAT_VERSION == 3
    assert set(manifest["artifacts"]) == set(MODEL_ARTIFACTS)
    assert "entity_taxonomy.json" not in manifest["artifacts"]
    return store


def _answers(model) -> list[dict]:
    pipeline = PolicyPipeline()
    company = model.company
    return [
        pipeline.query(model, question).verification.as_dict()
        for question in (
            f"{company} collects the email address.",
            f"{company} shares the email address with advertisers.",
            f"{company} sells the location information.",
        )
    ]


def test_v2_round_trip_keeps_the_digest(v1_store, tmp_path):
    store = _rewritten(v1_store.load().model, tmp_path / "current")
    assert model_digest(store.load().model) == EXPECTED


def test_v1_and_v2_answer_alike(v1_store, tmp_path):
    old = v1_store.load().model
    new = _rewritten(old, tmp_path / "current").load().model
    assert _answers(old) == _answers(new)


def test_fixture_is_a_v2_snapshot(v2_store):
    manifest = _manifest(v2_store)
    assert manifest["format_version"] == 2
    assert set(manifest["artifacts"]) == set(V2_MODEL_ARTIFACTS)


def test_v2_snapshot_loads_to_its_digest(v2_store):
    result = v2_store.load()
    assert result.clean
    assert model_digest(result.model) == EXPECTED_V2
    assert audit_structure(result.model).passed


def test_v2_fixture_round_trip_keeps_the_digest(v2_store, tmp_path):
    store = _rewritten(v2_store.load().model, tmp_path / "current")
    assert model_digest(store.load().model) == EXPECTED_V2


def test_v2_fixture_answers_like_the_v1_fixture(v1_store, v2_store, tmp_path):
    model = v2_store.load().model
    rewritten = _rewritten(model, tmp_path / "current").load().model
    assert _answers(model) == _answers(rewritten) == _answers(v1_store.load().model)


def test_damaged_entity_taxonomy_is_still_caught(v2_store):
    # The reader never decodes this artifact; only its manifest hash can
    # catch the flipped byte.
    path = v2_store.snapshots_dir / v2_store.current_id() / "entity_taxonomy.json"
    payload = bytearray(path.read_bytes())
    payload[len(payload) // 2] ^= 0x01
    path.write_bytes(bytes(payload))

    report = run_fsck(v2_store.root)
    assert not report.clean
    assert any(
        f.kind == "hash-mismatch" and "entity_taxonomy.json" in f.detail
        for f in report.findings
    )

    with pytest.raises(SnapshotCorruptionError) as excinfo:
        v2_store.load()
    (quarantined,) = excinfo.value.reports
    assert any("entity_taxonomy.json" in f for f in quarantined.failures)
    assert (v2_store.quarantine_dir / "snap-000001" / "report.json").exists()
