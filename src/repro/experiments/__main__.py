"""CLI: ``python -m repro.experiments <name>... [--full]``.

Names: table1, table2, fig3, fig4, fig5, prs, scaling, all.
``--full`` runs the paper's exact sizes (minutes); default is the fast
16x-reduced configuration (seconds).
"""

from __future__ import annotations

import argparse
import sys
import time

from . import ALL


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures on the simulated CM-5.",
    )
    parser.add_argument(
        "names",
        nargs="+",
        choices=sorted(ALL) + ["all"],
        help="experiments to run",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="use the paper's exact array sizes (slower)",
    )
    parser.add_argument(
        "--write",
        metavar="FILE",
        help="additionally write the reports as a markdown document",
    )
    args = parser.parse_args(argv)

    names = sorted(ALL) if "all" in args.names else args.names
    sections = []
    for name in names:
        mod = ALL[name]
        start = time.perf_counter()
        report = mod.run(fast=not args.full)
        wall = time.perf_counter() - start
        print("=" * 78)
        print(report)
        print(f"\n[{name}: generated in {wall:.1f}s wall]")
        print()
        sections.append((name, report))

    if args.write:
        size = "paper-exact" if args.full else "fast (16x-reduced)"
        lines = [
            "# Regenerated paper artifacts",
            "",
            f"Sizes: {size}.  All times are *simulated* CM-5 milliseconds; "
            "see docs/cost_model.md.",
            "",
        ]
        # Wall time stays on stdout: the file is a pure function of the
        # code, so CI can rebuild it and diff.
        for name, report in sections:
            lines.append(f"## {name}")
            lines.append("")
            lines.append("```")
            lines.append(report)
            lines.append("```")
            lines.append("")
        with open(args.write, "w") as fh:
            fh.write("\n".join(lines))
        print(f"[wrote {args.write}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
