"""Let ``python -m pytest benchmarks/e2e`` import ``repro`` from ``src/``."""

from benchmarks.e2e import paths

paths.ensure_src()
