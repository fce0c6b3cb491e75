"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload audit --seed 1 --seconds 16 --trace 0

Workloads, one per thing the paper's users do (see BENCHMARK.json):

* ``audit``  many related questions over one processed policy
  (``PolicyPipeline.query``; the solver path);
* ``update`` a chain of revisions applied in place, each re-verified
  (``PolicyPipeline.update``; segmentation, extraction, hierarchy);
* ``fleet``  one question across a sector of a minted fleet
  (``PolicyRegistry.query_fleet``; registry, store, jobs);
* ``serve``  ``/query`` against ``repro serve`` in its own process
  (HTTP, admission, model resolution).

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off; with ``--trace 1`` they are the per-layer ones from a traced
half-run (see :mod:`perfbench.tracing`).  ``success_share`` is one minus
the failed share and ``decided_share`` one minus the UNKNOWN share: both
shares are normally 0, and a relative regression bound needs a metric
that is not; the shares themselves are in the detail record.

Every time metric (throughput, latencies, ``setup_s``) is in
reference-speed time.  The host's CPU speed drifts by tens of percent
over seconds with nothing else running, and the hypervisor steals up to
a tenth of the CPU's time in some minutes and almost none in others.  So
a short fixed probe loop runs between operations (never during one), and
each operation's wall time is scaled by the reference probe time over the
probe times around it, and by the share of its CPU's time not stolen
around it (:class:`perfbench.host.HostSpeed`).  The probe is fixed code
outside the program, timed in this thread's CPU time: a faster program
does not move it, and time the program spends in other threads or
processes is not counted in it.  The wall-time figures are in the detail
record.

The line before the result is a JSON ``detail`` record: the workload mix,
the verdict digest (identical across every run of one commit), the
correctness checks and failure reasons, the host calibration before and
after, the probe times, the CPU time the hypervisor took during the run
(steal), GC pauses, the metrics in wall time, and, when traced, the
tracing overhead and the trace-integrity checks.  The last line is the
result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The run, and every process it starts (the ``serve`` daemon), is held to
one CPU; ``nproc`` (``fleet``'s job workers) stays the machine's CPU
count.  On a virtual machine whose CPUs the hypervisor takes away in
bursts (steal time), work spread over two CPUs waits whenever either is
taken: on a 2-CPU host, runs held to one CPU lost about half as much time
to steal, and ``fleet`` and ``serve`` throughput scattered less from run
to run.

Exits non-zero without a result when the program's sources (``src/repro``)
are not beside this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("audit", "update", "fleet", "serve")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="test-sized inputs and one set-up"
    )
    return parser.parse_args(argv)


def run(args) -> dict:
    """Run one workload; returns ``{"result": ..., "detail": ...}``."""
    from perfbench import host
    from perfbench.core import END_TO_END, PER_LAYER, Context
    from perfbench.serve import serve
    from perfbench.workloads import audit, fleet, update

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        root=ROOT,
        workdir=workdir,
        tiny=args.tiny,
    )
    calibration_before = host.calibration_ms()
    steal_before = host.steal_ms()
    try:
        result = {"audit": audit, "update": update, "fleet": fleet, "serve": serve}[
            args.workload
        ](ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's scratch is still there
    steal = host.steal_ms() - steal_before
    calibration_after = host.calibration_ms()

    names = PER_LAYER if ctx.trace else END_TO_END
    metrics = {name: {"value": result.metrics.get(name, 0.0), "unit": unit} for name, unit in names}
    failed = sum(not op.ok for op in result.ops)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "host.calibration_ms": {"before": calibration_before, "after": calibration_after},
        "host.steal_ms": steal,
        **result.detail,
    }
    return {
        "result": {
            "correct": bool(result.correct) and failed == 0,
            "attempted": len(result.ops),
            "failed": failed,
            "metrics": metrics,
        },
        "detail": detail,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    outcome = run(args)
    for name, metric in outcome["result"]["metrics"].items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"detail": outcome["detail"]}, sort_keys=True, default=str))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
