"""Self-time arithmetic on nested wrappers, and trace integrity."""

import sys
import threading
import time
import types

import pytest

from perfbench.tracing import Site, Trace, Tracer


@pytest.fixture
def fake_module():
    module = types.ModuleType("perfbench_fake_layers")

    def inner(seconds):
        time.sleep(seconds)
        return [1, 2, 3]

    def outer():
        time.sleep(0.01)
        module.inner(0.01)
        module.inner(0.02)
        return "done"

    def recursive(depth):
        if depth:
            return module.recursive(depth - 1)
        time.sleep(0.005)
        return depth

    def fan_out():
        worker = threading.Thread(target=module.inner, args=(0.01,))
        worker.start()
        worker.join()

    module.inner, module.outer = inner, outer
    module.recursive, module.fan_out = recursive, fan_out
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


SITES = (
    Site("perfbench_fake_layers:outer", "outer"),
    Site("perfbench_fake_layers:inner", "inner", observe=lambda r: {"items": len(r)}),
    Site("perfbench_fake_layers:recursive", "recursive"),
    Site("perfbench_fake_layers:fan_out", "fan", adopt=True),
)


def test_self_time_is_duration_minus_children(fake_module):
    tracer = Tracer()
    tracer.install(SITES)
    try:
        assert fake_module.outer() == "done"
    finally:
        tracer.uninstall()
    trace = tracer.trace()
    (outer,) = trace.spans_of("outer")
    duration = outer[3] - outer[2]
    inner = trace.layer_seconds("inner")
    assert trace.layer_calls("inner") == 2
    assert trace.self_seconds("outer") + inner == pytest.approx(duration, abs=1e-9)
    assert inner >= 0.03
    assert trace.self_seconds("outer") >= 0.01
    assert trace.counts["inner.items"] == 6
    assert trace.integrity() == {"escaped": 0, "self_mismatch": 0, "orphans": 0}


def test_uninstall_restores_the_originals(fake_module):
    original = fake_module.outer
    tracer = Tracer()
    tracer.install(SITES)
    assert fake_module.outer is not original
    tracer.uninstall()
    assert fake_module.outer is original


def test_nested_calls_of_one_layer_count_once(fake_module):
    tracer = Tracer()
    tracer.install(SITES)
    try:
        fake_module.recursive(3)
    finally:
        tracer.uninstall()
    trace = tracer.trace()
    assert trace.layer_calls("recursive") == 4
    outermost = [s for s in trace.spans_of("recursive") if s[4] == 0]
    (root,) = outermost
    assert trace.layer_seconds("recursive") == pytest.approx(root[3] - root[2])


def test_other_threads_are_adopted(fake_module):
    tracer = Tracer()
    tracer.install(SITES)
    try:
        fake_module.fan_out()
    finally:
        tracer.uninstall()
    trace = tracer.trace()
    (fan,) = trace.spans_of("fan")
    (worker,) = trace.spans_of("inner")  # adopted spans are kept whole
    assert worker[4] == fan[0]
    assert worker[5] != fan[5]
    assert trace.self_seconds("fan") == pytest.approx(
        (fan[3] - fan[2]) - (worker[3] - worker[2]), abs=1e-9
    )


def test_overlapping_children_cover_their_union():
    # parent 0..10 with two children on other threads, 1..4 and 3..6.
    spans = [
        (1, "p", 0.0, 10.0, 0, 1),
        (2, "c", 1.0, 4.0, 1, 2),
        (3, "c", 3.0, 6.0, 1, 3),
    ]
    trace = Trace(spans, [(1, "leaf", 1.5, 3)], {})
    assert trace.covered(trace.spans[1]) == pytest.approx(5.0 + 1.5)
    assert trace.self_seconds("p") == pytest.approx(3.5)
    assert trace.layer_seconds("c") == pytest.approx(6.0)
    assert trace.layer_seconds("leaf", under="p") == pytest.approx(1.5)
    assert trace.layer_seconds("leaf", not_under="p") == 0.0
    assert trace.integrity() == {"escaped": 0, "self_mismatch": 0, "orphans": 0}


def test_integrity_flags_broken_spans():
    spans = [
        (1, "p", 0.0, 2.0, 0, 1),
        (2, "c", 1.0, 3.0, 1, 1),  # ends after its parent
        (3, "d", 0.0, 1.0, 9, 1),  # parent never recorded
    ]
    trace = Trace(spans, [(1, "leaf", 5.0, 1)], {})  # more than the parent lasted
    report = trace.integrity()
    assert report["escaped"] == 1
    assert report["self_mismatch"] == 1
    assert report["orphans"] == 1


def test_since_keeps_later_operations_with_what_they_own(fake_module):
    tracer = Tracer()
    tracer.install(SITES)
    try:
        fake_module.outer()  # a warm-up, before the mark
        mark = time.perf_counter()
        fake_module.outer()
    finally:
        tracer.uninstall()
    whole = tracer.trace()
    later = whole.since(mark)
    assert whole.layer_calls("outer") == 2 and whole.counts["inner.items"] == 12
    assert later.layer_calls("outer") == 1 and later.layer_calls("inner") == 2
    assert later.counts["inner.items"] == 6
    (outer,) = later.spans_of("outer")
    assert outer[2] >= mark
    assert later.self_seconds("outer") + later.layer_seconds("inner") == pytest.approx(
        outer[3] - outer[2], abs=1e-9
    )
