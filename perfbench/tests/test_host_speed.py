"""Reference-speed scaling: each op is scaled by the probes nearest to it."""

import pytest

from perfbench.core import Op
from perfbench.host import REFERENCE_PROBE_MS, SPEED_WINDOW, HostSpeed


def _speed(samples, stolen=lambda t: 0):
    """Probe samples ``(moment, ms)``; the CPU is busy 100 ticks a second,
    ``stolen(t)`` of them stolen in second ``t``."""
    speed = HostSpeed()
    speed.samples = []
    busy = steal = 0
    for moment, ms in samples:
        speed.samples.append((moment, ms, busy, steal))
        steal += stolen(moment)
        busy += 100 - stolen(moment)
    return speed


def test_no_probes_leaves_times_alone():
    assert HostSpeed().factor(1.0) == 1.0


def test_factor_is_reference_over_the_median_of_the_nearest_window():
    # Probes at t = 0..99: twice the reference time until t = 50, then at it.
    speed = _speed((float(t), 2 * REFERENCE_PROBE_MS if t < 50 else REFERENCE_PROBE_MS) for t in range(100))
    assert speed.factor(10.0) == pytest.approx(0.5)
    assert speed.factor(90.0) == pytest.approx(1.0)
    # Before the first and after the last probe, the window is the edge.
    assert speed.factor(-5.0) == pytest.approx(0.5)
    assert speed.factor(500.0) == pytest.approx(1.0)
    # The median ignores a minority of outliers inside the window.
    spiky = _speed((float(t), 9.0 if t % SPEED_WINDOW == 0 else REFERENCE_PROBE_MS) for t in range(50))
    assert spiky.factor(25.0) == pytest.approx(1.0)


def test_normalize_scales_each_op_and_keeps_its_wall_time():
    speed = _speed((float(t), 2 * REFERENCE_PROBE_MS if t < 50 else REFERENCE_PROBE_MS) for t in range(100))
    slow, fast = Op(0.2, started=10.0), Op(0.2, started=90.0)
    speed.normalize([slow, fast])
    assert (slow.wall, fast.wall) == (0.2, 0.2)
    assert slow.seconds == pytest.approx(0.1)  # ran while the CPU was at half speed
    assert fast.seconds == pytest.approx(0.2)


def test_probe_samples_are_taken_in_time_order():
    speed = HostSpeed()
    speed.sample(3)
    moments = [sample[0] for sample in speed.samples]
    assert moments == sorted(moments) and len(moments) == 3
    assert all(sample[1] > 0 for sample in speed.samples)
    # Busy and stolen ticks never run backwards.
    assert speed.samples[-1][2] >= speed.samples[0][2]
    assert speed.samples[-1][3] >= speed.samples[0][3]


def test_stolen_time_is_taken_out():
    # A quarter of the CPU's time stolen from t = 50 on; probe speed steady.
    speed = _speed(((float(t), REFERENCE_PROBE_MS) for t in range(100)), lambda t: 25 if t >= 50 else 0)
    assert speed.stolen_share(10.0) == 0.0
    assert speed.stolen_share(80.0) == pytest.approx(0.25)
    op = Op(0.4, started=80.0)
    speed.normalize([op])
    assert op.seconds == pytest.approx(0.3)


def test_exact_span_takes_steal_over_the_interval_only():
    # Steal only in second 10; an op from 9.5 to 10.5 s is measured between
    # the samples at 9 and 11 s, a window op over the nine nearest.
    speed = _speed(((float(t), REFERENCE_PROBE_MS) for t in range(20)), lambda t: 50 if t == 10 else 0)
    assert speed.stolen_share(10.0, (9.5, 10.5)) == pytest.approx(50 / 200)
    assert speed.stolen_share(10.0) == pytest.approx(50 / 800)
    assert speed.scale(9.5, 1.0, exact=True) == pytest.approx(0.75)
