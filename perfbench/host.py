"""Per-run host diagnostics and the host-speed probe.

The host's speed drifts by tens of percent over seconds and minutes: the
same pure-Python loop takes anywhere from 20 to 40 ms of CPU time, with
no steal and no other work in the machine's view, because the physical
CPU is shared.  Two kinds of measurement absorb it:

* a fixed loop timed before and after each run (``host.calibration_ms``),
  a per-run diagnostic: a slow host period shows as slow calibration with
  unchanged work counts;
* :class:`HostSpeed`, a short probe of the same loop run between the
  operations of a run.  Its *CPU* time (``time.thread_time``) follows the
  CPU's speed: it excludes steal and the time other threads and processes
  run, so work the program adds elsewhere is not counted in it.  With
  ``/proc/stat``'s busy and stolen ticks of the run's CPU read at each
  probe, each operation's wall time is scaled by ``REFERENCE_PROBE_MS /
  probe time`` and by the share of the CPU's time not stolen around it,
  giving its *reference-speed* time: what it would have taken on the CPU
  running at the reference speed with nothing stolen.  On the reference
  host the probe part cut the quartile spread of a fixed query batch's
  time by about half, and the steal part that of the ``serve`` latencies
  by half again in a period of heavy steal.
"""

from __future__ import annotations

import bisect
import gc
import os
import resource
import statistics
import time

CALIBRATION_ITERATIONS = 200_000
#: One probe: about 1.6 ms of CPU time on the reference host.
PROBE_ITERATIONS = 10_000
#: The probe's CPU time on the reference host (a 2-vCPU virtual machine,
#: CPython 3.11.7) in a quiet period; reference-speed times are wall
#: times scaled to it.
REFERENCE_PROBE_MS = 1.6
#: Probes (the nearest in time) behind each speed estimate.
SPEED_WINDOW = 9
#: Seconds either side of a moment over which its stolen share is taken
#: (``/proc/stat`` counts in 10 ms ticks).
STEAL_WINDOW = 1.0


def _calibration_loop(iterations: int = CALIBRATION_ITERATIONS) -> int:
    acc = 0
    table = {}
    for i in range(iterations):
        acc = (acc * 31 + i) % 1_000_003
        if i % 64 == 0:
            table[i & 1023] = acc
    return acc + len(table)


def calibration_ms(repeats: int = 3) -> float:
    """Median wall time of the fixed loop, in milliseconds."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        _calibration_loop()
        samples.append((time.perf_counter() - started) * 1e3)
    return statistics.median(samples)


def probe_ms() -> float:
    """CPU time of one probe loop on this thread, in milliseconds."""
    started = time.thread_time()
    _calibration_loop(PROBE_ITERATIONS)
    return (time.thread_time() - started) * 1e3


def cpu_ticks(label: str = "cpu") -> tuple[int, int]:
    """``(busy, stolen)`` clock ticks of ``label`` (``cpu``: all CPUs,
    ``cpuN``: one) since boot, from ``/proc/stat``; ``(0, 0)`` where it
    does not say.  Busy is user, nice, system, irq and softirq time;
    stolen is time the hypervisor ran something else while this CPU had
    work (the kernel books a stolen tick as steal, not as busy)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            for line in handle:
                fields = line.split()
                if fields and fields[0] == label:
                    user, nice, system, _idle, _iowait, irq, softirq, steal = map(
                        int, fields[1:9]
                    )
                    return user + nice + system + irq + softirq, steal
    except (OSError, ValueError):
        pass
    return 0, 0


class HostSpeed:
    """Probe samples over a run, and the speed factor they give.

    :meth:`sample` is called between operations (never during one); each
    sample is ``(perf_counter moment, probe CPU ms, busy ticks, stolen
    ticks)``, the ticks those of the CPU the run is held to.

    The factor for a moment has two parts.  The probe part is
    ``REFERENCE_PROBE_MS`` over the median probe time nearby: how fast
    the CPU ran.  The steal part is one minus the share of the CPU's
    non-idle time the hypervisor took nearby: an operation that waited
    for its CPU through stolen time took that much longer in wall time.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, int, int]] = []
        self._label: str | None = None

    def sample(self, count: int = 1) -> None:
        if self._label is None:
            cpus = os.sched_getaffinity(0)
            self._label = f"cpu{min(cpus)}" if len(cpus) == 1 else "cpu"
        for _ in range(count):
            ms = probe_ms()
            self.samples.append((time.perf_counter(), ms, *cpu_ticks(self._label)))

    def _window(self, moment: float, seconds: float = 0.0) -> tuple[int, int]:
        """Index range of the ``SPEED_WINDOW`` samples nearest to
        ``moment``, widened to every sample within ``seconds`` of it."""
        self.samples.sort()
        moments = [t for t, *_ in self.samples]
        i = bisect.bisect(moments, moment)
        lo = max(0, i - SPEED_WINDOW // 2)
        hi = min(len(moments), lo + SPEED_WINDOW)
        lo = max(0, hi - SPEED_WINDOW)
        if seconds:
            lo = min(lo, bisect.bisect_left(moments, moment - seconds))
            hi = max(hi, bisect.bisect(moments, moment + seconds))
        return lo, hi

    def speed_factor(self, moment: float) -> float:
        """``REFERENCE_PROBE_MS`` over the median of the ``SPEED_WINDOW``
        probes nearest to ``moment``."""
        lo, hi = self._window(moment)
        return REFERENCE_PROBE_MS / statistics.median(s[1] for s in self.samples[lo:hi])

    def run_speed_factor(self) -> float:
        """``REFERENCE_PROBE_MS`` over the median of every probe so far."""
        return REFERENCE_PROBE_MS / statistics.median(s[1] for s in self.samples)

    def stolen_share(self, moment: float, span: tuple[float, float] | None = None) -> float:
        """Share of the CPU's non-idle time stolen between the first and
        the last sample within ``STEAL_WINDOW`` seconds of ``moment`` (at
        least the ``SPEED_WINDOW`` nearest samples), or, given ``span``,
        between the last sample before it and the first after it."""
        if span is None:
            lo, hi = self._window(moment, STEAL_WINDOW)
        else:
            moments = [t for t, *_ in self.samples]
            lo = max(0, bisect.bisect(moments, span[0]) - 1)
            hi = min(len(moments), bisect.bisect_left(moments, span[1]) + 1)
        first, last = self.samples[lo], self.samples[hi - 1]
        busy, stolen = last[2] - first[2], last[3] - first[3]
        return stolen / (busy + stolen) if busy + stolen > 0 else 0.0

    def factor(self, moment: float, span: tuple[float, float] | None = None) -> float:
        """Reference-speed seconds per wall second at ``moment`` (1.0 with
        no probes); ``span`` as for :meth:`stolen_share`."""
        if not self.samples:
            return 1.0
        return self.speed_factor(moment) * (1.0 - self.stolen_share(moment, span))

    def scale(self, started: float, seconds: float, *, exact: bool = False) -> float:
        """Reference-speed length of the interval ``[started, started +
        seconds]``.  ``exact``: the stolen share is taken over the interval
        itself, between the samples just outside it (for an interval with
        probes taken right before and after it, long enough for
        ``/proc/stat``'s 10 ms ticks: a set-up, a closed-loop slice)."""
        span = (started, started + seconds) if exact else None
        return seconds * self.factor(started + seconds / 2, span)

    def normalize(self, ops) -> None:
        """Turn each op's wall ``seconds`` into reference-speed seconds,
        keeping the wall time in ``op.wall``."""
        for op in ops:
            op.wall = op.seconds
            op.seconds = self.scale(op.started, op.wall)

    def summary(self) -> dict:
        if not self.samples:
            return {"probes": 0}
        probes = [s[1] for s in self.samples]
        first, last = min(self.samples), max(self.samples)
        busy, stolen = last[2] - first[2], last[3] - first[3]
        return {
            "probes": len(probes),
            "probe_ms": {
                "min": min(probes),
                "median": statistics.median(probes),
                "max": max(probes),
            },
            "reference_probe_ms": REFERENCE_PROBE_MS,
            "cpu": self._label,
            "stolen_share": stolen / (busy + stolen) if busy + stolen > 0 else 0.0,
        }


class GCPauses:
    """Total time spent inside collector passes, through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self._started: float | None = None

    def _callback(self, phase: str, info: dict) -> None:  # noqa: ARG002 - gc API
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.seconds += time.perf_counter() - self._started
            self.collections += 1
            self._started = None

    def __enter__(self) -> "GCPauses":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)


def steal_ms() -> float:
    """CPU time the hypervisor has taken from this machine's CPUs (summed
    over CPUs) since boot, in ms; 0 where ``/proc/stat`` does not say.

    The difference over a run shows how much of it the host took away.
    """
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) * 1e3 / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size (VmHWM) of ``pid`` (default: this process), MiB."""
    path = f"/proc/{pid if pid is not None else os.getpid()}/status"
    try:
        with open(path, encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        if pid is not None:
            raise
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
