"""Crash-injection matrix for the snapshot commit and journal protocols.

Every durable boundary in ``commit`` and ``commit_update`` is enumerated
by recording one clean run, then killed exactly once per matrix entry.
After each simulated kill the store is reopened cold (as a restarted
process would) and must recover to a hash-valid *pre* or *post* state —
never a hybrid, never a torn file, never a leftover journal.

The whole module carries the ``crash`` marker: CI runs it in its own
lane, and the fast lane deselects it.
"""

from __future__ import annotations

import pytest

from repro.corpus.versions import make_version
from repro.store import SnapshotStore
from repro.store.audit import edge_key
from repro.store.faults import CrashInjector, SimulatedCrash, kill_points, record_steps
from repro.store.snapshot import JOURNAL_NAME, _TMP_PREFIX

pytestmark = pytest.mark.crash


@pytest.fixture(scope="module")
def pre_model(pipeline, small_policy_text):
    return pipeline.process(small_policy_text)


@pytest.fixture(scope="module")
def post_model(pipeline, small_policy_text, pre_model):
    version = make_version(small_policy_text, seed=0)
    updated, _stats = pipeline.update(pre_model, version.text)
    return updated


def signature(model) -> tuple:
    """Comparable identity of a model's durable state."""
    return (
        model.revision,
        tuple(sorted(edge_key(e) for e in model.graph.edges())),
        tuple(sorted(model.data_taxonomy.as_edges())),
        tuple(sorted(model.node_vocabulary)),
    )


def assert_recovered(root, pre_sig, post_sig, context: str) -> None:
    """Reopen the store cold and check it holds exactly pre or post state."""
    store = SnapshotStore(root)
    result = store.load()
    got = signature(result.model)
    assert got in (pre_sig, post_sig), f"hybrid state after {context}"
    assert not (root / JOURNAL_NAME).exists(), f"journal left behind after {context}"
    leftovers = [
        p.name
        for p in (root / "snapshots").iterdir()
        if p.name.startswith(_TMP_PREFIX)
    ]
    assert not leftovers, f"staging dirs {leftovers} left behind after {context}"
    assert not result.quarantined, f"quarantine after {context}"


class TestFaultPrimitives:
    def test_simulated_crash_is_not_an_exception(self):
        # `except Exception` cleanup paths must not be able to swallow it.
        assert not issubclass(SimulatedCrash, Exception)
        assert issubclass(SimulatedCrash, BaseException)

    def test_injector_records_without_crashing(self):
        injector = CrashInjector()
        injector("a")
        injector("b")
        assert injector.steps == ["a", "b"]

    def test_injector_kills_nth_occurrence(self):
        injector = CrashInjector("x", occurrence=2)
        injector("x")
        with pytest.raises(SimulatedCrash) as excinfo:
            injector("x")
        assert excinfo.value.step == "x"

    def test_kill_points_number_repeats(self):
        assert kill_points(["a", "b", "a"]) == [("a", 1), ("b", 1), ("a", 2)]


class TestCommitCrashMatrix:
    def test_every_commit_boundary_recovers(
        self, pre_model, post_model, tmp_path
    ):
        schedule = record_steps(
            lambda inj: SnapshotStore(tmp_path / "record", step=inj).commit(
                pre_model
            )
        )
        assert len(schedule) >= 10, schedule
        pre_sig, post_sig = signature(pre_model), signature(post_model)
        for index, (step, occurrence) in enumerate(kill_points(schedule)):
            root = tmp_path / f"kill-{index}"
            SnapshotStore(root).commit(pre_model)
            injector = CrashInjector(step, occurrence=occurrence)
            with pytest.raises(SimulatedCrash):
                SnapshotStore(root, step=injector).commit(post_model)
            assert_recovered(
                root, pre_sig, post_sig, f"commit killed at {step}#{occurrence}"
            )

    def test_crash_before_any_write_preserves_pre_state(
        self, pre_model, post_model, tmp_path
    ):
        root = tmp_path / "store"
        SnapshotStore(root).commit(pre_model)
        injector = CrashInjector("serialize")
        with pytest.raises(SimulatedCrash):
            SnapshotStore(root, step=injector).commit(post_model)
        result = SnapshotStore(root).load()
        assert signature(result.model) == signature(pre_model)


class TestUpdateJournalCrashMatrix:
    def test_every_journaled_boundary_recovers(
        self, pre_model, post_model, tmp_path
    ):
        record_root = tmp_path / "record"
        SnapshotStore(record_root).commit(pre_model)
        schedule = record_steps(
            lambda inj: SnapshotStore(record_root, step=inj).commit_update(
                post_model
            )
        )
        # The journaled protocol brackets the plain commit.
        assert "journal_begin" in schedule and "journal_clear" in schedule
        pre_sig, post_sig = signature(pre_model), signature(post_model)
        outcomes: set[tuple] = set()
        for index, (step, occurrence) in enumerate(kill_points(schedule)):
            root = tmp_path / f"kill-{index}"
            SnapshotStore(root).commit(pre_model)
            injector = CrashInjector(step, occurrence=occurrence)
            with pytest.raises(SimulatedCrash):
                SnapshotStore(root, step=injector).commit_update(post_model)
            assert_recovered(
                root, pre_sig, post_sig, f"update killed at {step}#{occurrence}"
            )
            outcomes.add(signature(SnapshotStore(root).load().model))
        # The matrix must exercise both recovery directions: early kills
        # roll back to the base, late kills roll forward to the successor.
        assert outcomes == {pre_sig, post_sig}

    def test_update_after_recovery_continues_cleanly(
        self, pre_model, post_model, tmp_path
    ):
        root = tmp_path / "store"
        SnapshotStore(root).commit(pre_model)
        injector = CrashInjector("rename_snapshot")
        with pytest.raises(SimulatedCrash):
            SnapshotStore(root, step=injector).commit_update(post_model)
        # A fresh process can retry the same update and end on post-state.
        store = SnapshotStore(root)
        store.commit_update(post_model)
        assert signature(store.load().model) == signature(post_model)
