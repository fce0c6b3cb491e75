"""Cassette record/replay: round-trips, integrity, strict misses.

The satellite contract: corrupt/truncated cassette lines are skipped
with a structured report (never crash replay), record→replay round-trips
are byte-identical across worker counts, and strict replay raises a
typed :class:`CassetteMissError` on unknown prompts.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import CassetteMissError
from repro.llm.client import CachedLLM, prompt_fingerprint
from repro.llm.simulated import SimulatedLLM
from repro.providers import (
    RecordingLLM,
    ReplayLLM,
    cassette_line,
    load_cassette,
)

pytestmark = pytest.mark.providers


class CountingLLM:
    """Echo backend that counts how many completions it actually served."""

    def __init__(self):
        self.calls = 0

    def complete(self, prompt: str) -> str:
        self.calls += 1
        return f"completion::{prompt}"


class TestRecording:
    def test_records_every_distinct_prompt_once(self, tmp_path):
        path = tmp_path / "tape.jsonl"
        backend = CountingLLM()
        with RecordingLLM(backend, path) as recorder:
            for prompt in ("a", "b", "a", "c", "b"):
                assert recorder.complete(prompt) == f"completion::{prompt}"
        table, report = load_cassette(path)
        assert len(table) == 3
        assert report.skipped == []
        assert recorder.stats.cassette_records == 3
        assert backend.calls == 5  # recording does not cache

    def test_append_extends_existing_cassette(self, tmp_path):
        path = tmp_path / "tape.jsonl"
        with RecordingLLM(CountingLLM(), path) as recorder:
            recorder.complete("a")
        with RecordingLLM(CountingLLM(), path) as recorder:
            recorder.complete("a")  # already on tape: not re-appended
            recorder.complete("b")
        table, report = load_cassette(path)
        assert len(table) == 2
        assert report.duplicates == 0

    def test_concurrent_recording_dedups(self, tmp_path):
        path = tmp_path / "tape.jsonl"
        prompts = [f"prompt-{i % 4}" for i in range(32)]
        with RecordingLLM(CountingLLM(), path) as recorder:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(recorder.complete, prompts))
        assert results == [f"completion::{p}" for p in prompts]
        table, report = load_cassette(path)
        assert len(table) == 4
        assert report.skipped == []


class TestReplay:
    def test_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "tape.jsonl"
        with RecordingLLM(CountingLLM(), path) as recorder:
            recorded = {p: recorder.complete(p) for p in ("x", "y", "z")}
        replay = ReplayLLM(path)
        for prompt, completion in recorded.items():
            assert replay.complete(prompt) == completion
        assert replay.stats.cassette_replays == 3
        assert replay.stats.cassette_misses == 0

    def test_strict_miss_raises_typed_error_with_digest(self, tmp_path):
        path = tmp_path / "tape.jsonl"
        with RecordingLLM(CountingLLM(), path) as recorder:
            recorder.complete("known")
        replay = ReplayLLM(path, strict=True)
        with pytest.raises(CassetteMissError) as excinfo:
            replay.complete("never recorded")
        assert excinfo.value.prompt_digest == prompt_fingerprint("never recorded")
        assert replay.stats.cassette_misses == 1

    def test_missing_file_is_an_empty_cassette(self, tmp_path):
        replay = ReplayLLM(tmp_path / "nope.jsonl")
        assert len(replay) == 0
        with pytest.raises(CassetteMissError):
            replay.complete("anything")

    def test_fallback_serves_misses(self, tmp_path):
        path = tmp_path / "tape.jsonl"
        with RecordingLLM(CountingLLM(), path) as recorder:
            recorder.complete("on tape")
        backend = CountingLLM()
        replay = ReplayLLM(path, fallback=backend)
        assert replay.complete("on tape") == "completion::on tape"
        assert backend.calls == 0
        assert replay.complete("fresh") == "completion::fresh"
        assert backend.calls == 1


class TestIntegrity:
    def _write(self, path, lines):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_corrupt_lines_skipped_with_structured_report(self, tmp_path):
        path = tmp_path / "tape.jsonl"
        good = cassette_line("good prompt", "good completion")
        tampered = good.replace("good completion", "evil completion")
        self._write(
            path,
            [
                good,
                "{not json at all",
                tampered,  # checksum no longer matches
                json.dumps({"sha256": "abc"}),  # missing record
                json.dumps([1, 2, 3]),  # not an object
            ],
        )
        table, report = load_cassette(path)
        assert len(table) == 1
        assert table[prompt_fingerprint("good prompt")] == "good completion"
        assert report.entries == 1
        assert [s.line_number for s in report.skipped] == [2, 3, 4, 5]
        reasons = [s.reason for s in report.skipped]
        assert any("JSON" in r for r in reasons)
        assert any("checksum" in r for r in reasons)
        # The report serializes for operational surfacing.
        assert report.as_dict()["entries"] == 1
        assert len(report.as_dict()["skipped"]) == 4

    def test_torn_tail_never_crashes_replay(self, tmp_path):
        path = tmp_path / "tape.jsonl"
        good = cassette_line("kept", "kept completion")
        torn = cassette_line("torn", "torn completion")[:25]
        path.write_text(good + "\n" + torn, encoding="utf-8")
        replay = ReplayLLM(path)
        assert replay.complete("kept") == "kept completion"
        assert len(replay.report.skipped) == 1

    def test_recording_onto_torn_tail_keeps_every_record(self, tmp_path):
        # A kill tore p1 mid-append.  The next recorder must cut the torn
        # fragment before appending: otherwise p2 joins onto it, that
        # line becomes unreadable, and p2 is lost while the recorder still
        # believes it is on tape.
        path = tmp_path / "tape.jsonl"
        torn = cassette_line("p1", "c1")[:25]
        path.write_text(cassette_line("p0", "c0") + "\n" + torn, encoding="utf-8")
        with RecordingLLM(CountingLLM(), path) as recorder:
            recorder.complete("p2")
            recorder.complete("p3")
            assert len(recorder) == 3
        table, report = load_cassette(path)
        assert report.skipped == []
        assert table == {
            prompt_fingerprint("p0"): "c0",
            prompt_fingerprint("p2"): "completion::p2",
            prompt_fingerprint("p3"): "completion::p3",
        }

    def test_digest_prompt_mismatch_is_skipped(self, tmp_path):
        path = tmp_path / "tape.jsonl"
        # Re-envelope a record whose digest names a different prompt: the
        # checksum is valid but the content-addressing is a lie.
        import hashlib

        record = {
            "v": 1,
            "digest": prompt_fingerprint("other prompt"),
            "prompt": "this prompt",
            "completion": "c",
        }
        payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
        line = json.dumps(
            {
                "sha256": hashlib.sha256(payload.encode()).hexdigest(),
                "record": record,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        self._write(path, [line])
        table, report = load_cassette(path)
        assert table == {}
        assert report.skipped[0].reason == "digest does not match prompt"

    def test_duplicate_digests_first_wins(self, tmp_path):
        path = tmp_path / "tape.jsonl"
        self._write(
            path,
            [cassette_line("p", "first"), cassette_line("p", "second")],
        )
        table, report = load_cassette(path)
        assert table[prompt_fingerprint("p")] == "first"
        assert report.duplicates == 1


class TestRoundTripAcrossWorkerCounts:
    """Record once, replay at several worker counts: identical bytes."""

    PROMPTS = [f"distinct prompt number {i}" for i in range(12)]

    def test_replay_identical_at_1_2_8_workers(self, tmp_path):
        path = tmp_path / "tape.jsonl"
        with RecordingLLM(CountingLLM(), path) as recorder:
            recorded = [recorder.complete(p) for p in self.PROMPTS]
        baseline = json.dumps(recorded, sort_keys=True)
        for workers in (1, 2, 8):
            replay = CachedLLM(ReplayLLM(path, strict=True))
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(replay.complete, self.PROMPTS))
            assert json.dumps(results, sort_keys=True) == baseline
