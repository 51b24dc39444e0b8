"""Run ``python -m repro`` with tracing installed.

Usage: ``python -m benchmarks.e2e.host SPANS_JSON serve [serve flags]``.

Installs the span wrappers of :mod:`benchmarks.e2e.tracing`, then runs
the ``repro`` command line through :mod:`runpy`, so a traced server is
the same program as an untraced ``python -m repro serve``.  When the
program exits (after its SIGTERM drain), the spans, the measured cost of
one span and end-of-run statistics are written to ``SPANS_JSON``.
"""

from __future__ import annotations

import runpy
import sys

from . import paths
from .tracing import Recorder, exit_stats, install, span_cost


def main() -> None:
    if len(sys.argv) < 3:
        raise SystemExit(__doc__)
    spans_path = sys.argv[1]
    sys.argv = ["repro"] + sys.argv[2:]
    paths.ensure_src()
    cost = span_cost()
    rec = Recorder()
    install(rec, serve=True)
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    finally:
        rec.dump(spans_path, span_cost=cost, exit=exit_stats(rec))


if __name__ == "__main__":
    main()
