"""Order statistics, interval arithmetic and latency shares.

Everything here is pure and deterministic so the rules the benchmark
reports by can be unit-tested without running a workload:

* :func:`percentile` refuses a percentile with fewer than
  :data:`MIN_BEYOND` samples beyond it (the choosing-metrics rule);
* :func:`self_time` subtracts the *union* of child intervals, so nested
  and overlapping children are never double-counted;
* :func:`shares` splits one request's latency into named parts plus an
  explicit residual, so the parts add up to 1.0 by construction.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Mapping, Sequence

#: A percentile is only reported when at least this many samples lie
#: beyond it; otherwise it describes a handful of outliers.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def samples_needed(pct: float) -> int:
    """Smallest sample count for which ``pct`` has :data:`MIN_BEYOND`
    samples beyond it."""
    return math.ceil(MIN_BEYOND * 100.0 / (100.0 - pct) - 1e-9)


def percentile(values: Sequence[float], pct: float, strict: bool = True) -> float:
    """Linear-interpolated percentile (numpy's default rule).

    With ``strict``, raises :class:`TooFewSamples` unless at least
    :data:`MIN_BEYOND` samples lie beyond ``pct``; the median is exempt
    as long as there is at least one sample.  Per-layer metrics carry no
    bound and pass ``strict=False``; they still need one sample.
    """
    n = len(values)
    if n == 0:
        raise TooFewSamples(f"p{pct:g} of an empty sample")
    if strict and pct > 50 and n < samples_needed(pct):
        raise TooFewSamples(
            f"p{pct:g} needs {samples_needed(pct)} samples "
            f"({MIN_BEYOND} beyond it), got {n}"
        )
    xs = sorted(values)
    pos = (n - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    if len(values) < 2:
        v = float(values[0]) if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# ------------------------------------------------------------------ intervals
def union_length(intervals: Iterable[tuple[float, float]],
                 lo: float = -math.inf, hi: float = math.inf) -> float:
    """Total length covered by ``intervals`` after clipping to
    ``[lo, hi]``; overlaps count once."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start: float, end: float,
              children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it its children cover."""
    return (end - start) - union_length(children, start, end)


# --------------------------------------------------------------------- shares
def shares(total: float, parts: Mapping[str, float],
           residual: str) -> dict[str, float]:
    """Split ``total`` into ``parts`` plus ``residual`` (whatever the parts
    do not explain), each as a fraction of ``total``.

    The fractions sum to 1.0 up to rounding.  A residual below zero means
    the parts were measured overlapping or on a wrong clock; it is kept,
    not clipped, so the error shows.
    """
    if total <= 0:
        raise ValueError(f"cannot split a non-positive total {total!r}")
    out = {name: value / total for name, value in parts.items()}
    out[residual] = 1.0 - math.fsum(out.values())
    return out


def mean_shares(per_request: Sequence[Mapping[str, float]]) -> dict[str, float]:
    """Per-key mean over requests whose shares each sum to 1.0."""
    if not per_request:
        return {}
    keys = sorted({k for s in per_request for k in s})
    n = len(per_request)
    return {k: math.fsum(s.get(k, 0.0) for s in per_request) / n for k in keys}
