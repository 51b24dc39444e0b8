"""Monospace table / series formatting for the experiment reports.

The experiments print rows shaped like the paper's tables and figure
series so EXPERIMENTS.md can place paper values and measured values side
by side.  Everything here is plain text — no plotting dependencies.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Sequence

__all__ = ["format_table", "format_series", "fmt_ms", "fmt_value"]


def fmt_ms(seconds: float) -> str:
    """Milliseconds with paper-style two decimals."""
    return f"{seconds * 1e3:.2f}"


def fmt_value(v: Any) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        if math.isinf(v):
            return "inf"
        if v == int(v) and abs(v) < 1e15:
            return str(int(v))
        return f"{v:.2f}"
    return str(v)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: str | None = None,
) -> str:
    """Align a simple monospace table."""
    cells = [[fmt_value(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for j, c in enumerate(row):
            widths[j] = max(widths[j], len(c))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[j]) for j, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.rjust(widths[j]) for j, c in enumerate(row)))
    return "\n".join(lines)


def format_series(
    title: str,
    x_label: str,
    xs: Sequence[Any],
    series: Mapping[str, Sequence[float]],
    unit: str = "ms",
) -> str:
    """Print figure data as one row per x with one column per curve."""
    headers = [x_label] + [f"{name} ({unit})" for name in series]
    rows = []
    for i, x in enumerate(xs):
        row: list[Any] = [x]
        for name in series:
            v = series[name][i]
            if v is None:
                row.append(None)
            elif unit == "ms":
                row.append(fmt_ms(v))
            else:
                row.append(v)
        rows.append(row)
    return format_table(headers, rows, title=title)
