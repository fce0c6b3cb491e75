"""Self-healing repair: repairable damage heals to byte-identical
verdicts; unrepairable damage is quarantined with provenance, never
silently served."""

from __future__ import annotations

import json

import pytest

from repro.core.verify import Verdict
from repro.errors import IntegrityError, SnapshotError
from repro.integrity import plan_repairs, run_fsck, walk_log
from repro.integrity.faults import flip_bit, truncate_tail, zero_block
from repro.jobs.checkpoint import (
    JOURNAL_NAME,
    CheckpointJournal,
    journal_line,
    read_journal,
)
from repro.providers.cassette import cassette_line, load_cassette
from repro.store.snapshot import SnapshotStore

pytestmark = pytest.mark.integrity

QUESTION = "The company collects the user's email address."


def verdict_bytes(pipeline, model, question=QUESTION) -> str:
    return json.dumps(pipeline.query(model, question).as_dict(), sort_keys=True)


def repair(root, *, rebuilder=None):
    plan = plan_repairs(run_fsck(root))
    plan.apply(rebuilder=rebuilder)
    return plan


def make_journal(directory):
    with CheckpointJournal(directory) as journal:
        journal.write_header(["q0", "q1", "q2", "q3"], company="Acme", revision=1)
        for index in range(4):
            journal.append_result(
                index,
                f"q{index}",
                "outcome",
                Verdict.VALID,
                {"verdict": "VALID", "question": f"q{index}"},
            )
    return directory / JOURNAL_NAME


def make_cassette(path, entries=4):
    lines = [
        cassette_line(f"prompt number {i}", f"completion number {i}")
        for i in range(entries)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestStoreRepair:
    def test_corrupt_current_heals_to_byte_identical_verdicts(
        self, tmp_path, pipeline, small_model
    ):
        store = SnapshotStore(tmp_path / "store")
        store.commit(small_model)
        store.commit(small_model)
        baseline = verdict_bytes(pipeline, small_model)
        zero_block(store.snapshots_dir / store.current_id() / "embeddings.npz")

        plan = repair(tmp_path / "store")
        assert not plan.unrepairable
        assert {a.status for a in plan.actions} == {"applied"}
        after = run_fsck(tmp_path / "store")
        assert after.clean, after.summary()
        assert after.scanned["quarantined"] == 1  # provenance preserved

        healed = pipeline.load_model(tmp_path / "store")
        assert verdict_bytes(pipeline, healed) == baseline

    def test_unrepairable_store_never_silently_served(
        self, tmp_path, pipeline, small_model
    ):
        store = SnapshotStore(tmp_path / "store")
        store.commit(small_model)
        flip_bit(store.snapshots_dir / store.current_id() / "graph.json")

        plan = repair(tmp_path / "store")
        assert plan.unrepairable  # data was lost; the operator must know
        # The damage is quarantined, not patched over: a load refuses
        # loudly instead of serving corrupt bytes.
        with pytest.raises(SnapshotError):
            pipeline.load_model(tmp_path / "store")
        quarantine = tmp_path / "store" / "quarantine"
        assert any(quarantine.iterdir())

    def test_rebuilder_recommits_byte_identical_model(
        self, tmp_path, pipeline, small_model, small_policy_text
    ):
        store = SnapshotStore(tmp_path / "store")
        store.commit(small_model)
        baseline = verdict_bytes(pipeline, small_model)
        flip_bit(store.snapshots_dir / store.current_id() / "graph.json")

        plan = repair(
            tmp_path / "store",
            rebuilder=lambda root: pipeline.process(small_policy_text),
        )
        rebuilt = [a for a in plan.actions if a.action == "rebuild-store"]
        assert rebuilt and rebuilt[0].status == "applied"
        assert run_fsck(tmp_path / "store").clean
        healed = pipeline.load_model(tmp_path / "store")
        assert verdict_bytes(pipeline, healed) == baseline

    def test_pending_journal_and_staging_resolved(self, tmp_path, small_model):
        store = SnapshotStore(tmp_path / "store")
        store.commit(small_model)
        staging = store.snapshots_dir / ".tmp-snap-000099"
        staging.mkdir()
        (staging / "partial.json").write_text("{}", encoding="utf-8")

        before = run_fsck(tmp_path / "store")
        assert not before.clean
        plan = repair(tmp_path / "store")
        assert any(a.action == "gc-staging" for a in plan.actions)
        assert run_fsck(tmp_path / "store").clean
        assert not staging.exists()

    def test_plan_cannot_be_applied_twice(self, tmp_path, small_model):
        store = SnapshotStore(tmp_path / "store")
        store.commit(small_model)
        store.commit(small_model)
        zero_block(store.snapshots_dir / store.current_id() / "graph.json")
        plan = repair(tmp_path / "store")
        with pytest.raises(IntegrityError):
            plan.apply()


class TestRegistryRepair:
    @pytest.fixture()
    def fleet(self, pipeline, tmp_path):
        from repro.registry import MintSpec, PolicyRegistry

        root = tmp_path / "reg"
        registry = PolicyRegistry(root, pipeline=pipeline)
        registry.mint(MintSpec(count=2, seed=37, target_words=(340,)))
        return root

    def test_dangling_entry_dropped_with_provenance(self, fleet):
        import shutil

        from repro.registry.manifest import read_manifest

        victim_dir = sorted((fleet / "shards").rglob("CURRENT"))[0].parent
        shutil.rmtree(victim_dir)
        plan = repair(fleet)
        drops = [a for a in plan.actions if a.action == "drop-entry"]
        assert drops and drops[0].status == "applied"
        assert run_fsck(fleet).clean
        assert len(read_manifest(fleet).entries) == 1
        provenance = list((fleet / "quarantine").glob("dropped-entry-*.json"))
        assert provenance
        payload = json.loads(provenance[0].read_text("utf-8"))
        assert payload["entry"]["company"] == drops[0].subject

    def test_orphan_store_adopted_back(self, fleet):
        from repro.registry.manifest import read_manifest

        manifest_path = fleet / "REGISTRY.json"
        payload = json.loads(manifest_path.read_text("utf-8"))
        dropped = sorted(payload["companies"])[0]
        del payload["companies"][dropped]
        manifest_path.write_text(json.dumps(payload), encoding="utf-8")

        plan = repair(fleet)
        adopts = [a for a in plan.actions if a.action == "adopt-store"]
        assert adopts and adopts[0].status == "applied"
        assert run_fsck(fleet).clean
        assert dropped in read_manifest(fleet).entries

    def test_unreadable_manifest_rebuilt_from_stores(self, fleet, pipeline):
        from repro.registry import PolicyRegistry
        from repro.registry.manifest import read_manifest

        before = read_manifest(fleet)
        zero_block(fleet / "REGISTRY.json")
        plan = repair(fleet)
        rebuilds = [a for a in plan.actions if a.action == "rebuild-manifest"]
        assert rebuilds and rebuilds[0].status == "applied"
        assert run_fsck(fleet).clean
        after = read_manifest(fleet)
        assert sorted(after.entries) == sorted(before.entries)
        for company, entry in after.entries.items():
            assert entry.store_dir == before.entries[company].store_dir
            assert entry.shard == before.entries[company].shard
        # The rebuilt index serves queries again.
        registry = PolicyRegistry(fleet, pipeline=pipeline)
        model = registry.get_model(sorted(after.entries)[0])
        assert model is not None
        # The damaged original is provenance, not garbage.
        assert (fleet / "quarantine" / "REGISTRY.json.corrupt").exists()

    def test_wrong_shard_recorded_is_rewritten(self, fleet):
        from repro.registry.manifest import read_manifest

        manifest_path = fleet / "REGISTRY.json"
        payload = json.loads(manifest_path.read_text("utf-8"))
        company = sorted(payload["companies"])[0]
        payload["companies"][company]["shard"] = "shard-63"
        manifest_path.write_text(json.dumps(payload), encoding="utf-8")

        plan = repair(fleet)
        rewrites = [a for a in plan.actions if a.action == "rewrite-entry"]
        assert rewrites and rewrites[0].status == "applied"
        entry = read_manifest(fleet).entries[company]
        assert entry.shard != "shard-63"


class TestCheckpointRepair:
    def test_torn_tail_truncated_resume_state_identical(self, tmp_path):
        journal = make_journal(tmp_path)
        damaged_trust = read_journal(journal)  # prefix-trust on the tear
        truncate_tail(journal, keep_fraction=0.95)
        damaged_trust = read_journal(journal)

        plan = repair(tmp_path)
        assert [a.action for a in plan.actions] == ["truncate-tail"]
        assert run_fsck(tmp_path).clean
        healed = read_journal(journal)
        assert not healed.torn_tail
        assert healed.completed.keys() == damaged_trust.completed.keys()

    def test_mid_file_corruption_compacts_to_trusted_prefix(self, tmp_path):
        journal = make_journal(tmp_path)
        trusted_before = read_journal(journal)
        zero_block(journal, offset=len(journal.read_bytes()) // 2, length=16)
        trusted_damaged = read_journal(journal)  # what resume would trust

        plan = repair(tmp_path)
        assert [a.action for a in plan.actions] == ["compact-journal"]
        assert run_fsck(tmp_path).clean
        healed = read_journal(journal)
        # Compaction preserves exactly the trusted prefix — resume after
        # repair re-executes the same pending set as resume before it.
        assert healed.completed.keys() == trusted_damaged.completed.keys()
        assert set(healed.completed) <= set(trusted_before.completed)
        corrupt_copy = journal.with_name(journal.name + ".corrupt")
        assert corrupt_copy.exists()  # damaged original kept as provenance

    def test_headerless_journal_quarantined(self, tmp_path):
        record = {
            "kind": "outcome",
            "index": 0,
            "question": "q0",
            "verdict": "VALID",
            "trace": {},
        }
        journal = tmp_path / JOURNAL_NAME
        journal.write_text(journal_line(record) + "\n", encoding="utf-8")
        report = run_fsck(tmp_path)
        assert report.unrepairable
        plan = plan_repairs(report)
        plan.apply()
        assert [a.action for a in plan.actions] == ["quarantine-journal"]
        assert not journal.exists()
        assert journal.with_name(journal.name + ".corrupt").exists()


class TestCassetteRepair:
    def test_damaged_lines_compact_away_valid_lines_verbatim(self, tmp_path):
        cassette = tmp_path / "tape.jsonl"
        make_cassette(cassette)
        table_before, _ = load_cassette(cassette)
        flip_bit(cassette)  # lands mid-file in one envelope

        plan = repair(cassette)
        assert [a.action for a in plan.actions] == ["compact-cassette"]
        assert run_fsck(cassette).clean
        table_after, report = load_cassette(cassette)
        assert not report.skipped
        # Surviving entries replay byte-identically.
        for digest, completion in table_after.items():
            assert table_before[digest] == completion
        assert len(table_after) == len(table_before) - 1
        assert cassette.with_name(cassette.name + ".corrupt").exists()


class TestLogFormat:
    """Envelope bytes pinned to what earlier releases wrote: a journal or
    cassette on disk today must keep reading back the same records."""

    def test_journal_line_golden(self):
        header = {
            "kind": "header",
            "version": 1,
            "company": "Acme",
            "revision": 2,
            "questions": ["q0", "q1"],
            "questions_sha256": "ab12",
        }
        assert journal_line(header) == (
            '{"record":{"company":"Acme","kind":"header","questions":["q0","q1"],'
            '"questions_sha256":"ab12","revision":2,"version":1},'
            '"sha256":"1396a2cd47b917661e19b32b6498704ee0032846c6d5292a34aec0a7b425d2d7"}'
        )
        outcome = {
            "kind": "outcome",
            "index": 3,
            "question": "Does Acme sell the e-mail address?",
            "verdict": "INVALID",
            "trace": {"verdict": "INVALID", "n": [1, 2.5, None, True]},
        }
        assert journal_line(outcome) == (
            '{"record":{"index":3,"kind":"outcome","question":"Does Acme sell '
            'the e-mail address?","trace":{"n":[1,2.5,null,true],"verdict":'
            '"INVALID"},"verdict":"INVALID"},"sha256":"6dad1b813b9e338d4ca275b9'
            '9ab5350c4b5912f2b666db7455460beabd35a464"}'
        )

    def test_cassette_line_golden(self):
        line = cassette_line(
            "Extract the practices: Acme sells email addresses.",
            'caf\u00e9 \u2028 line\nnext "quoted"',
        )
        assert line == (
            '{"record":{"completion":"caf\\u00e9 \\u2028 line\\nnext '
            '\\"quoted\\"","digest":"cfd8d0cc818f3b573992232725b2f2057d9bd871'
            'fcc675e4e0e4bf16893a84a9","prompt":"Extract the practices: Acme '
            'sells email addresses.","v":1},"sha256":"4363f601c62624dad686fb3f'
            'b51132048bdd70703a598071b7fe1a6759e69432"}'
        )


def _tamper(line: str) -> str:
    """Change a record but keep its old digest: a mid-file checksum failure."""
    wrapped = json.loads(line)
    wrapped["record"]["tampered"] = True
    return json.dumps(wrapped, sort_keys=True, separators=(",", ":"))


def _edit_lines(edit):
    def damage(path):
        lines = path.read_text("utf-8").splitlines()
        path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")

    return damage


#: The damage shapes an append-only log can suffer.
LOG_DAMAGE = {
    "torn-tail": lambda p: truncate_tail(p, keep_fraction=0.95),
    "mid-file-checksum": _edit_lines(
        lambda lines: lines[:2] + [_tamper(lines[2])] + lines[3:]
    ),
    "garbage-line": _edit_lines(lambda lines: lines[:2] + ["{not json"] + lines[2:]),
    "duplicate-key": _edit_lines(lambda lines: lines + [lines[1]]),
    # Bit rot turned a newline into a vertical tab, joining two lines.
    "joined-lines": _edit_lines(
        lambda lines: lines[:2] + [lines[2] + "\x0b" + lines[3]] + lines[4:]
    ),
    "empty-file": lambda p: p.write_text("", encoding="utf-8"),
    "missing-file": lambda p: p.unlink(),
}

#: What fsck finds for each (family, shape), as (kind, severity,
#: repairable), and the repair it plans.  Journal damage that ends the
#: trusted prefix is an error; a cassette only skips the damaged line.
LOG_EXPECTED = {
    ("checkpoint", "torn-tail"): ([("torn-tail", "warn", True)], ["truncate-tail"]),
    ("checkpoint", "mid-file-checksum"): (
        [("hash-mismatch", "error", True)],
        ["compact-journal"],
    ),
    ("checkpoint", "garbage-line"): (
        [("hash-mismatch", "error", True)],
        ["compact-journal"],
    ),
    ("checkpoint", "duplicate-key"): (
        [("duplicate-record", "warn", True)],
        ["compact-journal"],
    ),
    ("checkpoint", "joined-lines"): (
        [("hash-mismatch", "error", True)],
        ["compact-journal"],
    ),
    ("checkpoint", "empty-file"): ([], []),
    ("checkpoint", "missing-file"): ([], []),
    ("cassette", "torn-tail"): ([("torn-tail", "warn", True)], ["compact-cassette"]),
    ("cassette", "mid-file-checksum"): (
        [("hash-mismatch", "warn", True)],
        ["compact-cassette"],
    ),
    ("cassette", "garbage-line"): (
        [("format-error", "warn", True)],
        ["compact-cassette"],
    ),
    # Two recorders racing on one prompt: first wins, nothing to repair.
    ("cassette", "duplicate-key"): ([], []),
    ("cassette", "joined-lines"): (
        [("format-error", "warn", True)],
        ["compact-cassette"],
    ),
    ("cassette", "empty-file"): ([], []),
    ("cassette", "missing-file"): ([], []),
}


def _trusted(family, log):
    """What the family's own reader would serve from ``log``."""
    if family == "checkpoint":
        recovery = read_journal(log)
        return recovery.header, recovery.completed
    table, _ = load_cassette(log)
    return table


class TestLogDamageMatrix:
    """One damage matrix over both log families: the reader and the
    walker agree on what is trusted, fsck's verdict on each shape is
    pinned, and repair leaves a log that re-scans clean."""

    @pytest.mark.parametrize("shape", sorted(LOG_DAMAGE))
    @pytest.mark.parametrize("family", ["checkpoint", "cassette"])
    def test_damage_shape(self, tmp_path, family, shape):
        if family == "checkpoint":
            target = tmp_path
            log = make_journal(tmp_path)
        else:
            target = log = tmp_path / "tape.jsonl"
            make_cassette(log)
        LOG_DAMAGE[shape](log)
        trusted_before = _trusted(family, log)

        report = walk_log(target, family)
        findings, actions = LOG_EXPECTED[(family, shape)]
        assert [
            (f.kind, str(f.severity), f.repairable) for f in report.findings
        ] == findings
        assert all(f.family == family for f in report.findings)
        plan = plan_repairs(report)
        plan.apply()
        assert [a.action for a in plan.actions] == actions
        assert {a.status for a in plan.actions} <= {"applied"}

        # Repair keeps exactly what the reader trusted, and nothing the
        # walker would still flag.
        assert walk_log(target, family).clean
        assert _trusted(family, log) == trusted_before


class TestCertRepair:
    def test_damaged_evidence_moved_aside_with_provenance(self, tmp_path):
        import hashlib

        text = "(assert true)\n(check-sat)\n"
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        cert = tmp_path / f"cert-{digest[:12]}"
        cert.mkdir()
        (cert / "formula.smt2").write_text(text, encoding="utf-8")
        (cert / "report.json").write_text(
            json.dumps({"script_sha256": digest}), encoding="utf-8"
        )
        flip_bit(cert / "formula.smt2")

        report = run_fsck(tmp_path)
        assert report.unrepairable
        plan = plan_repairs(report)
        plan.apply()
        assert [a.action for a in plan.actions] == ["quarantine-evidence"]
        assert not cert.exists()
        moved = tmp_path / "damaged" / cert.name
        assert (moved / "provenance.json").exists()
        # Post-repair scan is clean (damaged/ is resolved evidence), but
        # the CLI still exits 9 because unrepairable findings existed.
        assert run_fsck(tmp_path).clean
