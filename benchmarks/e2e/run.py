"""Script form of ``python -m benchmarks.e2e run``, named by BENCHMARK.json.

    python3 benchmarks/e2e/run.py --workload lib_cold --seed 0 --seconds 24 --trace 0

Works from any directory; the checkout root is found from this file.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["run"] + sys.argv[1:]))
