"""Where the benchmark finds the program it measures and writes results.

The benchmark lives in ``benchmarks/e2e`` of a checkout and measures the
``repro`` package under ``src/`` of the same checkout, from source.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

PKG_DIR = Path(__file__).resolve().parent
ROOT = PKG_DIR.parent.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
PINNED_JSON = PKG_DIR / "pinned.json"
#: Default directory for result files and traces (ignored by git).
OUT_DIR = PKG_DIR / "out"


class MissingProgram(RuntimeError):
    """The checkout does not hold the program under ``src/``."""


def ensure_src() -> None:
    """Put ``src/`` on ``sys.path``, or raise if the checkout lacks it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(
            f"{SRC / 'repro'} not found: run the benchmark from a full "
            f"checkout of the repository"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for processes the benchmark launches: ``src/`` and the
    checkout root on ``PYTHONPATH``, nothing else changed."""
    env = dict(os.environ)
    parts = [str(SRC), str(ROOT)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env
