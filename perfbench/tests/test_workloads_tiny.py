"""A tiny run of each workload prints every metric by name with its unit."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.core import END_TO_END, PER_LAYER

ROOT = Path(__file__).resolve().parents[2]


def _run(workload, trace, seconds):
    completed = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", str(seconds),
            "--trace", str(trace),
            "--tiny",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def _check(result, names):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == dict(names)


@pytest.mark.parametrize(
    "workload,seconds", [("audit", 2), ("update", 2), ("fleet", 2), ("serve", 4)]
)
def test_end_to_end_metrics(workload, seconds):
    detail, result = _run(workload, 0, seconds)
    _check(result, END_TO_END)
    assert all(result["metrics"][n]["value"] > 0 for n, _u in END_TO_END)
    assert detail["digest"] and detail["mix"]
    assert set(detail["host.calibration_ms"]) == {"before", "after"}


@pytest.mark.parametrize("workload", ["audit", "serve"])
def test_per_layer_metrics(workload):
    detail, result = _run(workload, 1, 4)
    _check(result, PER_LAYER)
    assert detail["trace_integrity"] == {"escaped": 0, "self_mismatch": 0, "orphans": 0}
    assert "throughput_per_s" in detail["tracing_overhead"]
    if workload == "serve":
        # Client-observed service time contains the daemon's handling.
        assert result["metrics"]["server.http_overhead_ms"]["value"] >= 0
        assert 0 < detail["trace_coverage"]["handle_over_service"] <= 1


def test_same_digest_across_seeds():
    digests = set()
    for seed in ("4", "5"):
        completed = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "update",
             "--seed", seed, "--seconds", "1", "--trace", "0", "--tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        digests.add(json.loads(completed.stdout.strip().splitlines()[-2])["detail"]["digest"])
    assert len(digests) == 1


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
