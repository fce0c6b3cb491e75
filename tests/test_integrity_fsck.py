"""Corruption-matrix coverage for the unified fsck scan.

Every deterministic fault from :mod:`repro.integrity.faults`, injected
into every artifact family, must surface at least one typed finding in
that family — the 100%-detection acceptance bar.  Clean fixtures must
scan clean first (no false positives), and layout discovery must find a
mixed workdir's artifacts exactly once.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.core.verify import Verdict
from repro.integrity import classify_root, discover_targets, run_fsck
from repro.integrity.faults import flip_bit, swap_files, truncate_tail, zero_block
from repro.integrity.findings import (
    KIND_CROSS_REF,
    KIND_HASH_MISMATCH,
    KIND_MISSING_REFERENT,
    KIND_ORPHAN,
    KIND_TORN_TAIL,
    Severity,
)
from repro.errors import IntegrityError
from repro.jobs.checkpoint import JOURNAL_NAME, CheckpointJournal
from repro.providers.cassette import cassette_line
from repro.store.snapshot import SnapshotStore

pytestmark = pytest.mark.integrity


# ---------------------------------------------------------------------------
# Fixture builders: one pristine artifact per family
# ---------------------------------------------------------------------------


def make_store(path, model, *, commits=2) -> SnapshotStore:
    store = SnapshotStore(path)
    for _ in range(commits):
        store.commit(model)
    return store


def make_journal(directory) -> "os.PathLike[str]":
    with CheckpointJournal(directory) as journal:
        journal.write_header(["q0", "q1", "q2"], company="Acme", revision=1)
        for index in range(3):
            journal.append_result(
                index, f"q{index}", "outcome", Verdict.VALID, {"verdict": "VALID"}
            )
    return directory / JOURNAL_NAME


def make_cassette(path) -> None:
    lines = [
        cassette_line(f"prompt number {i}", f"completion number {i}")
        for i in range(4)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_cert_dir(root) -> None:
    text = "(assert true)\n(check-sat)\n"
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    cert = root / f"cert-{digest[:12]}"
    cert.mkdir(parents=True)
    (cert / "formula.smt2").write_text(text, encoding="utf-8")
    (cert / "report.json").write_text(
        json.dumps({"reason": "certification failed", "script_sha256": digest}),
        encoding="utf-8",
    )


# ---------------------------------------------------------------------------
# Clean scans: no false positives
# ---------------------------------------------------------------------------


class TestCleanScans:
    def test_clean_store_scans_clean(self, tmp_path, pipeline, small_model):
        make_store(tmp_path / "store", small_model)
        report = run_fsck(tmp_path / "store")
        assert report.clean, report.summary()
        assert report.scanned["snapshots"] == 2
        assert report.scanned["artifacts"] > 0

    def test_clean_checkpoint_scans_clean(self, tmp_path):
        make_journal(tmp_path)
        report = run_fsck(tmp_path)
        assert report.clean, report.summary()
        assert report.scanned["journal_records"] == 4  # header + 3 outcomes

    def test_clean_cassette_scans_clean(self, tmp_path):
        cassette = tmp_path / "session.jsonl"
        make_cassette(cassette)
        report = run_fsck(cassette)
        assert report.clean, report.summary()
        assert report.scanned["cassette_lines"] == 4

    def test_clean_cert_quarantine_scans_clean(self, tmp_path):
        make_cert_dir(tmp_path)
        report = run_fsck(tmp_path)
        assert report.clean, report.summary()
        assert report.scanned["cert_dirs"] == 1

    def test_missing_root_raises_typed_error(self, tmp_path):
        with pytest.raises(IntegrityError):
            run_fsck(tmp_path / "nope")


# ---------------------------------------------------------------------------
# Layout discovery
# ---------------------------------------------------------------------------


class TestDiscovery:
    def test_classify_each_family(self, tmp_path, small_model):
        make_store(tmp_path / "store", small_model, commits=1)
        make_journal(tmp_path / "ckpt")
        make_cert_dir(tmp_path / "certs")
        cassette = tmp_path / "tape.jsonl"
        make_cassette(cassette)
        assert classify_root(tmp_path / "store") == "store"
        assert classify_root(tmp_path / "ckpt") == "checkpoint"
        assert classify_root(tmp_path / "certs") == "certs"
        assert classify_root(cassette) == "cassette"
        assert classify_root(tmp_path) is None  # plain container

    def test_mixed_workdir_discovers_each_artifact_once(
        self, tmp_path, small_model
    ):
        make_store(tmp_path / "store", small_model, commits=1)
        make_journal(tmp_path / "ckpt")
        make_cert_dir(tmp_path / "certs")
        make_cassette(tmp_path / "tape.jsonl")
        kinds = sorted(kind for kind, _ in discover_targets(tmp_path))
        assert kinds == ["cassette", "certs", "checkpoint", "store"]
        report = run_fsck(tmp_path)
        assert report.clean, report.summary()
        assert report.scanned["stores"] == 1
        assert report.scanned["cassettes"] == 1


# ---------------------------------------------------------------------------
# The corruption matrix: every fault x every family detected
# ---------------------------------------------------------------------------

FAULTS = {
    "flip_bit": lambda p: flip_bit(p),
    # keep_fraction=0.9 guarantees the cut lands inside the final record
    # of line-oriented files (a cut exactly on a line boundary is
    # indistinguishable from a shorter append-only log, by design).
    "truncate_tail": lambda p: truncate_tail(p, keep_fraction=0.9),
    "zero_block": lambda p: zero_block(p),
}

# For REGISTRY.json a mid-file bit flip can be semantically silent (it
# may land in free text), so the registry lane targets structural bytes.
REGISTRY_FAULTS = {
    "flip_bit": lambda p: flip_bit(p, offset=0),
    "truncate_tail": lambda p: truncate_tail(p),
    "zero_block": lambda p: zero_block(p),
}


@pytest.fixture(scope="module")
def fleet_root(pipeline, tmp_path_factory):
    from repro.registry import MintSpec, PolicyRegistry

    root = tmp_path_factory.mktemp("integrity-fleet") / "reg"
    registry = PolicyRegistry(root, pipeline=pipeline)
    report = registry.mint(MintSpec(count=2, seed=31, target_words=(340,)))
    assert len(report.minted) == 2
    return root


def copy_fleet(fleet_root, tmp_path):
    import shutil

    target = tmp_path / "fleet"
    shutil.copytree(fleet_root, target)
    return target


class TestCorruptionMatrix:
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_store_artifact_fault_detected(
        self, tmp_path, small_model, fault
    ):
        store = make_store(tmp_path / "store", small_model)
        target = store.snapshots_dir / store.current_id() / "graph.json"
        FAULTS[fault](target)
        report = run_fsck(tmp_path / "store")
        assert not report.clean, f"{fault} on graph.json went undetected"
        assert any(f.family == "store" for f in report.findings)
        assert all(f.repairable for f in report.findings)  # older snap survives

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_store_manifest_fault_detected(self, tmp_path, small_model, fault):
        store = make_store(tmp_path / "store", small_model)
        target = store.snapshots_dir / store.current_id() / "MANIFEST.json"
        FAULTS[fault](target)
        report = run_fsck(tmp_path / "store")
        assert not report.clean, f"{fault} on MANIFEST.json went undetected"
        assert any(f.family == "store" for f in report.findings)

    @pytest.mark.parametrize("fault", sorted(REGISTRY_FAULTS))
    def test_registry_manifest_fault_detected(
        self, tmp_path, fleet_root, fault
    ):
        root = copy_fleet(fleet_root, tmp_path)
        REGISTRY_FAULTS[fault](root / "REGISTRY.json")
        report = run_fsck(root)
        assert not report.clean, f"{fault} on REGISTRY.json went undetected"
        critical = [f for f in report.findings if f.family == "registry"]
        assert critical and critical[0].severity is Severity.CRITICAL
        # The member stores are still walked for the rebuild plan.
        assert report.scanned["stores"] == 2

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_checkpoint_fault_detected(self, tmp_path, fault):
        journal = make_journal(tmp_path)
        FAULTS[fault](journal)
        report = run_fsck(tmp_path)
        assert not report.clean, f"{fault} on journal went undetected"
        assert any(f.family == "checkpoint" for f in report.findings)

    def test_checkpoint_torn_tail_classified_warn(self, tmp_path):
        journal = make_journal(tmp_path)
        truncate_tail(journal, keep_fraction=0.98)  # cut inside the last line
        report = run_fsck(tmp_path)
        kinds = {f.kind for f in report.findings}
        assert KIND_TORN_TAIL in kinds
        assert report.max_severity is Severity.WARN

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_cassette_fault_detected(self, tmp_path, fault):
        cassette = tmp_path / "tape.jsonl"
        make_cassette(cassette)
        FAULTS[fault](cassette)
        report = run_fsck(cassette)
        assert not report.clean, f"{fault} on cassette went undetected"
        assert any(f.family == "cassette" for f in report.findings)
        assert all(f.repairable for f in report.findings)

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_cert_evidence_fault_detected(self, tmp_path, fault):
        make_cert_dir(tmp_path)
        target = next(tmp_path.glob("cert-*")) / "formula.smt2"
        FAULTS[fault](target)
        report = run_fsck(tmp_path)
        assert not report.clean, f"{fault} on formula.smt2 went undetected"
        finding = report.findings[0]
        assert finding.family == "certs"
        assert not finding.repairable  # evidence is never patched back

    def test_swapped_artifacts_within_snapshot_detected(
        self, tmp_path, small_model
    ):
        store = make_store(tmp_path / "store", small_model)
        snap = store.snapshots_dir / store.current_id()
        swap_files(snap / "graph.json", snap / "practices.json")
        report = run_fsck(tmp_path / "store")
        mismatches = [
            f for f in report.findings if f.kind == KIND_HASH_MISMATCH
        ]
        assert len(mismatches) >= 2  # both sides fail their digests

    def test_swapped_snapshot_directories_detected(
        self, tmp_path, pipeline, small_model, small_policy_text
    ):
        # Two snapshots with different content, then swap the directories:
        # every file still hashes clean against its local manifest, so
        # only the identity cross-reference can see it.
        store = SnapshotStore(tmp_path / "store")
        store.commit(small_model)
        updated = pipeline.process(small_policy_text + "\nWe may share data.")
        store.commit(updated)
        a, b = store.snapshot_ids()
        tmp = store.snapshots_dir / "swap-tmp"
        os.rename(store.snapshots_dir / a, tmp)
        os.rename(store.snapshots_dir / b, store.snapshots_dir / a)
        os.rename(tmp, store.snapshots_dir / b)
        report = run_fsck(tmp_path / "store")
        assert any(f.kind == KIND_CROSS_REF for f in report.findings)

    def test_swapped_store_directories_detected(self, tmp_path, fleet_root):
        root = copy_fleet(fleet_root, tmp_path)
        stores = sorted(
            d for d in (root / "shards").rglob("CURRENT")
        )
        assert len(stores) == 2
        swap_a, swap_b = stores[0].parent, stores[1].parent
        tmp = root / "swap-tmp"
        os.rename(swap_a, tmp)
        os.rename(swap_b, swap_a)
        os.rename(tmp, swap_b)
        report = run_fsck(root)
        cross = [f for f in report.findings if f.kind == KIND_CROSS_REF]
        assert cross, "swapped store directories went undetected"
        assert any("routes" in f.detail for f in cross)

    def test_dangling_registry_entry_detected(self, tmp_path, fleet_root):
        import shutil

        root = copy_fleet(fleet_root, tmp_path)
        victim = sorted((root / "shards").rglob("CURRENT"))[0].parent
        shutil.rmtree(victim)
        report = run_fsck(root)
        assert any(
            f.kind == KIND_MISSING_REFERENT and f.family == "registry"
            for f in report.findings
        )

    def test_orphan_store_detected(self, tmp_path, fleet_root):
        root = copy_fleet(fleet_root, tmp_path)
        manifest_path = root / "REGISTRY.json"
        payload = json.loads(manifest_path.read_text("utf-8"))
        dropped = sorted(payload["companies"])[0]
        del payload["companies"][dropped]
        manifest_path.write_text(json.dumps(payload), encoding="utf-8")
        report = run_fsck(root)
        orphans = [f for f in report.findings if f.kind == KIND_ORPHAN]
        assert orphans and orphans[0].family == "registry"
