"""Background scrubbing: cursor-driven incremental verification,
admission-aware pausing, and scrub-under-load chaos over real sockets."""

from __future__ import annotations

import json
import threading

import pytest

from repro import PolicyPipeline, PolicyServer, ServerConfig, ServingClient
from repro.core.metrics import PipelineMetrics
from repro.integrity.faults import zero_block
from repro.integrity.scrub import CURSOR_NAME, BackgroundScrubber
from repro.registry import MintSpec, PolicyRegistry
from repro.registry.manifest import read_manifest

pytestmark = pytest.mark.integrity

QUESTION = "The company collects the user's email address."


@pytest.fixture(scope="module")
def scrub_root(pipeline, tmp_path_factory):
    root = tmp_path_factory.mktemp("scrub") / "reg"
    registry = PolicyRegistry(root, pipeline=pipeline)
    report = registry.mint(MintSpec(count=2, seed=41, target_words=(340,)))
    assert len(report.minted) == 2
    return root


def copy_fleet(scrub_root, tmp_path):
    import shutil

    dest = tmp_path / "reg"
    shutil.copytree(scrub_root, dest)
    (dest / CURSOR_NAME).unlink(missing_ok=True)
    return dest


class FakeGate:
    def __init__(self, depth: int = 0) -> None:
        self.depth = depth


def drain_pass(scrubber, max_ticks=64):
    """Tick until a full pass completes; return all findings surfaced."""
    found = []
    start = scrubber.passes
    for _ in range(max_ticks):
        found.extend(scrubber.run_once())
        if scrubber.passes > start:
            return found
    raise AssertionError("scrub pass did not complete within tick budget")


class TestConstruction:
    def test_rejects_non_positive_interval(self, tmp_path):
        with pytest.raises(ValueError):
            BackgroundScrubber(tmp_path, interval=0)

    def test_empty_registry_tick_is_clean(self, tmp_path):
        scrubber = BackgroundScrubber(tmp_path, interval=1.0)
        assert scrubber.run_once() == []
        assert scrubber.snapshots_verified == 0


class TestCursor:
    def test_full_pass_visits_every_snapshot_once(self, scrub_root, tmp_path):
        root = copy_fleet(scrub_root, tmp_path)
        manifest = read_manifest(root)
        scrubber = BackgroundScrubber(root, interval=1.0)
        assert drain_pass(scrubber) == []
        assert scrubber.snapshots_verified == len(manifest.entries)
        assert scrubber.artifacts_verified > 0
        assert scrubber.passes == 1

    def test_cursor_persisted_after_each_tick(self, scrub_root, tmp_path):
        root = copy_fleet(scrub_root, tmp_path)
        scrubber = BackgroundScrubber(root, interval=1.0)
        scrubber.run_once()
        cursor = json.loads((root / CURSOR_NAME).read_text("utf-8"))
        assert cursor["company"] in read_manifest(root).entries
        assert cursor["position"] == 1

    def test_restarted_scrubber_resumes_mid_pass(self, scrub_root, tmp_path):
        root = copy_fleet(scrub_root, tmp_path)
        first = BackgroundScrubber(root, interval=1.0)
        first.run_once()  # verify one snapshot, persist cursor
        resumed = BackgroundScrubber(root, interval=1.0)
        drain_pass(resumed)
        # The resumed instance finishes the pass without re-verifying the
        # snapshot the first instance already covered.
        total = len(read_manifest(root).entries)
        assert first.snapshots_verified + resumed.snapshots_verified == total

    def test_garbage_cursor_resets_to_start(self, scrub_root, tmp_path):
        root = copy_fleet(scrub_root, tmp_path)
        (root / CURSOR_NAME).write_text("not json", encoding="utf-8")
        scrubber = BackgroundScrubber(root, interval=1.0)
        assert drain_pass(scrubber) == []


class TestAdmissionAwareness:
    def test_busy_gate_pauses_tick(self, scrub_root, tmp_path):
        root = copy_fleet(scrub_root, tmp_path)
        metrics = PipelineMetrics()
        scrubber = BackgroundScrubber(
            root, interval=1.0, gate=FakeGate(depth=3), metrics=metrics
        )
        assert scrubber.run_once() == []
        assert scrubber.paused == 1
        assert scrubber.snapshots_verified == 0
        assert metrics.scrub_paused == 1

    def test_idle_gate_lets_tick_proceed(self, scrub_root, tmp_path):
        root = copy_fleet(scrub_root, tmp_path)
        scrubber = BackgroundScrubber(root, interval=1.0, gate=FakeGate(depth=0))
        scrubber.run_once()
        assert scrubber.snapshots_verified == 1
        assert scrubber.paused == 0


class TestDetection:
    def test_injected_corruption_surfaces_finding_and_metrics(
        self, scrub_root, tmp_path
    ):
        root = copy_fleet(scrub_root, tmp_path)
        victim = sorted(root.rglob("embeddings.bin"))[0]
        zero_block(victim)
        metrics = PipelineMetrics()
        scrubber = BackgroundScrubber(root, interval=1.0, metrics=metrics)
        findings = drain_pass(scrubber)
        assert findings, "scrub pass missed injected corruption"
        assert all(f.family == "store" for f in findings)
        assert any(f.detail.startswith("scrub:") for f in findings)
        assert metrics.integrity_findings == len(findings)
        stats = scrubber.stats()
        assert stats["findings"] == len(findings)
        assert stats["recent_findings"]

    def test_unreadable_manifest_is_critical(self, scrub_root, tmp_path):
        root = copy_fleet(scrub_root, tmp_path)
        zero_block(root / "REGISTRY.json")
        scrubber = BackgroundScrubber(root, interval=1.0)
        findings = scrubber.run_once()
        assert len(findings) == 1
        assert findings[0].family == "registry"
        assert str(findings[0].severity) == "critical"


class TestThreadLifecycle:
    def test_start_stop_idempotent(self, scrub_root, tmp_path):
        root = copy_fleet(scrub_root, tmp_path)
        scrubber = BackgroundScrubber(root, interval=0.01)
        scrubber.start()
        scrubber.start()  # no-op
        assert scrubber.stats()["running"]
        scrubber.stop()
        scrubber.stop()  # no-op
        assert not scrubber.stats()["running"]


class TestScrubUnderLoad:
    """Chaos: the scrubber runs inside a live server under concurrent
    query traffic — zero in-flight loss, stats surfaced end to end."""

    def test_serving_with_scrubber_loses_nothing(self, scrub_root, tmp_path):
        root = copy_fleet(scrub_root, tmp_path)
        companies = sorted(read_manifest(root).entries)
        server = PolicyServer(
            ServerConfig(
                root=root,
                port=0,
                max_pending=8,
                default_deadline=10.0,
                handle_signals=False,
                scrub_interval=0.01,
            ),
            pipeline=PolicyPipeline(),
        )
        server.start()
        try:
            assert server.scrubber is not None
            host, port = server.address
            results: list[tuple[int, str]] = []
            lock = threading.Lock()

            def worker(n: int) -> None:
                client = ServingClient(host, port, timeout=10.0)
                try:
                    for i in range(4):
                        status, body = client.query(
                            companies[(n + i) % len(companies)], QUESTION
                        )
                        with lock:
                            results.append((status, body))
                finally:
                    client.close()

            threads = [
                threading.Thread(target=worker, args=(n,)) for n in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert len(results) == 12  # zero in-flight loss
            assert all(status == 200 for status, _ in results)

            stats = server.stats()
            assert stats["scrub"] is not None
            assert stats["scrub"]["interval"] == pytest.approx(0.01)
            assert stats["integrity"]["findings"] >= 0
        finally:
            server.stop()
        # Cursor persisted: a later fsck/scrub resumes where serving left off.
        assert (root / CURSOR_NAME).exists() or server.scrubber.snapshots_verified == 0

    def test_server_without_interval_has_no_scrubber(self, scrub_root, tmp_path):
        root = copy_fleet(scrub_root, tmp_path)
        server = PolicyServer(
            ServerConfig(root=root, port=0, handle_signals=False),
            pipeline=PolicyPipeline(),
        )
        server.start()
        try:
            assert server.scrubber is None
            assert server.stats()["scrub"] is None
        finally:
            server.stop()
