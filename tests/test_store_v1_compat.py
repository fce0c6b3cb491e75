"""A committed format-version-1 snapshot still loads to the model it held.

``tests/data/v1_snapshot/`` was written by the last version-1 writer and
``tests/data/v1_snapshot.digest.json`` pins the model it loaded back (see
``tests/data/make_v1_snapshot.py``).  The current reader must rebuild the
same model from it, and a round trip through the current (version-2)
writer must too.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from repro import PolicyPipeline
from repro.store import MODEL_ARTIFACTS, SnapshotStore
from repro.store.audit import audit_structure
from repro.store.serialize import V1_MODEL_ARTIFACTS
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


@pytest.fixture()
def v1_store(tmp_path) -> SnapshotStore:
    # A copy: a failed load would quarantine the committed fixture.
    root = tmp_path / "v1"
    shutil.copytree(DATA / "v1_snapshot", root)
    return SnapshotStore(root)


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


def test_v2_round_trip_keeps_the_digest(v1_store, tmp_path):
    model = v1_store.load().model
    store = SnapshotStore(tmp_path / "v2")
    store.commit(model)
    manifest = _manifest(store)
    assert manifest["format_version"] == FORMAT_VERSION == 2
    assert set(manifest["artifacts"]) == set(MODEL_ARTIFACTS)
    assert model_digest(store.load().model) == EXPECTED


def test_v1_and_v2_answer_alike(v1_store, tmp_path):
    old = v1_store.load().model
    store = SnapshotStore(tmp_path / "v2")
    store.commit(old)
    new = store.load().model
    pipeline = PolicyPipeline()
    company = old.company
    for question in (
        f"{company} collects the email address.",
        f"{company} shares the email address with advertisers.",
        f"{company} sells the location information.",
    ):
        assert (
            pipeline.query(old, question).verification.as_dict()
            == pipeline.query(new, question).verification.as_dict()
        ), question
