"""Open-loop due-time accounting against a deliberately slow fake server."""

import random
import threading

from perfbench.inputs import ServeSchedule, paced_arrivals
from perfbench.serve import open_loop




class VirtualClock:
    """Time that moves only when the generator sleeps or the server works."""

    def __init__(self) -> None:
        self.now = 0.0
        self.lock = threading.Lock()

    def __call__(self) -> float:
        with self.lock:
            return self.now

    def advance(self, seconds: float) -> None:
        with self.lock:
            self.now += seconds


def _run(arrivals, service_seconds):
    clock = VirtualClock()

    def send(_conn, _pair):
        clock.advance(service_seconds)  # the slow server
        return 200, "VALID"

    schedule = ServeSchedule([("c", "q")] * len(arrivals), arrivals)
    return open_loop(send, schedule, 1, clock=clock, sleep=clock.advance)


def test_latency_runs_from_due_time_when_the_server_falls_behind():
    # Requests due every 10 ms, each takes 50 ms: the backlog grows, and
    # request k waits for the k before it.
    arrivals = [0.01 * k for k in range(10)]
    ops, late, service = _run(arrivals, 0.05)
    latencies = [op.seconds for op in ops]
    expected = [(k + 1) * 0.05 - k * 0.01 for k in range(10)]
    assert latencies == pytest_approx(expected)
    assert late == pytest_approx([max(0.0, k * 0.05 - k * 0.01) for k in range(10)])
    assert service == pytest_approx([0.05] * 10)
    # A closed-loop timer would have reported 50 ms for every request.
    assert max(latencies) > 5 * 0.05


def test_no_lateness_when_the_server_keeps_up():
    arrivals = [0.1 * k for k in range(5)]
    ops, late, _service = _run(arrivals, 0.01)
    assert late == [0.0] * 5
    assert [op.seconds for op in ops] == pytest_approx([0.01] * 5)


def test_paced_arrivals_are_seeded_and_spaced():
    a = paced_arrivals(random.Random("s"), 50.0, 100)
    b = paced_arrivals(random.Random("s"), 50.0, 100)
    assert a == b != paced_arrivals(random.Random("t"), 50.0, 100)
    assert len(a) == 100 and 0 < a[0] and a[-1] < 2.0
    gaps = [y - x for x, y in zip(a, a[1:])]
    assert min(gaps) >= (1 - 2 * 0.35) / 50.0 - 1e-12


def pytest_approx(values):
    import pytest

    return pytest.approx(values, abs=1e-9)


def test_idle_probe_runs_only_in_quiet_gaps():
    # Requests due at 0, 1 ms and 100 ms, each served in 1 ms: the gap after
    # the second reply is long, the one after the first is not.
    clock = VirtualClock()
    idle_at = []

    def send(_conn, _pair):
        clock.advance(0.001)
        return 200, "VALID"

    schedule = ServeSchedule([("c", "q")] * 3, [0.0, 0.001, 0.1])
    open_loop(
        send, schedule, 1, clock=clock, sleep=clock.advance,
        idle=lambda: idle_at.append(clock()), idle_gap=0.006,
    )
    assert idle_at == pytest_approx([0.002, 0.101])


def test_scan_slots_always_miss_the_lru():
    from collections import OrderedDict

    from perfbench.inputs import serve_block, serve_sequence

    hot = [f"h{i:02d}" for i in range(16)]
    scan = [f"s{i:02d}" for i in range(18)]
    questions = ["q0", "q1"]
    block = serve_block(50, hot=hot, questions=questions, scan_share=0.12)
    assert sum(c is None for c, _q in block) == 6
    sequence = serve_sequence(random.Random("x"), block, 2000, scan=scan, questions=questions)
    assert serve_sequence(random.Random("x"), block, 2000, scan=scan, questions=questions) == sequence
    lru: OrderedDict = OrderedDict((c, None) for c in hot + scan[:16])
    misses = {"hot": 0, "scan": 0}
    scanned = 0
    for company, _question in sequence:
        scanned += company in scan
        if company in lru:
            lru.move_to_end(company)
            assert scanned <= len(scan) or company in hot
            continue
        misses["scan" if company in scan else "hot"] += 1
        lru[company] = None
        if len(lru) > 32:
            lru.popitem(last=False)
    # After the first pass over the scan set, every scan request is a cold
    # load, and no hot request ever is.
    assert misses["hot"] == 0
    assert misses["scan"] == scanned - 16
