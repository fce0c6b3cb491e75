"""Start ``repro.cli.main`` (e.g. ``serve``), optionally under the tracer.

Usage: ``python3 perfbench/serve_launcher.py [--trace-out FILE] <repro args>``.
With ``--trace-out``, the same timing wrappers as the in-process workloads
are installed before the CLI runs, and the spans are written to ``FILE``
when it returns (after the daemon drains).
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    tracer = None
    if trace_out is not None:
        from perfbench.tracing import Tracer

        tracer = Tracer()
        tracer.install()
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
