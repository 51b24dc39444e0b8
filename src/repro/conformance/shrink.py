"""Greedy minimization of failing conformance cases.

Given a case the oracle rejects, repeatedly try "smaller" variants and keep
any variant that still fails, until no candidate shrinks further or the
evaluation budget runs out.  Candidates are ordered so the structural
shrinks land first — shrink extents, drop axes, shrink the processor grid —
then the distributions are simplified toward BLOCK, and finally the
configuration knobs are reset one at a time (mask sparsified, dtypes
collapsed to float64, schedules to their defaults).  The result is the
small, readable repro that goes into the corpus.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Callable, Iterator

from .cases import ConformanceCase
from .oracle import run_case

__all__ = ["shrink_case"]


def _axis_edit(case: ConformanceCase, j: int, **axis_fields) -> ConformanceCase:
    fields = {}
    for name, value in axis_fields.items():
        seq = list(getattr(case, name))
        seq[j] = value
        fields[name] = tuple(seq)
    return replace(case, **fields)


def _candidates(case: ConformanceCase) -> Iterator[ConformanceCase]:
    """Strictly-simpler variants, most aggressive first."""
    d = case.d
    # 1. Shrink dims: halve extents (zero is legal and stays reachable).
    for j in range(d):
        n = case.shape[j]
        if n > 0:
            yield _axis_edit(case, j, shape=n // 2)
        if n > 1:
            yield _axis_edit(case, j, shape=n - 1)
    # ... and drop whole axes.
    if d > 1:
        for j in range(d):
            keep = [i for i in range(d) if i != j]
            yield replace(
                case,
                shape=tuple(case.shape[i] for i in keep),
                grid=tuple(case.grid[i] for i in keep),
                dist=tuple(case.dist[i] for i in keep),
            )
    # 2. Shrink P.
    for j in range(d):
        p = case.grid[j]
        if p > 1:
            yield _axis_edit(case, j, grid=p // 2)
            yield _axis_edit(case, j, grid=p - 1)
    # 3. Simplify distributions toward BLOCK.
    for j in range(d):
        if case.dist[j] != "block":
            yield _axis_edit(case, j, dist="block")
            if case.dist[j] != "cyclic":
                yield _axis_edit(case, j, dist="cyclic")
    # 4. Sparsify / regularize the mask.
    if case.mask_kind != "random":
        yield replace(case, mask_kind="random")
    if case.mask_kind in ("random", "first") and case.density > 0.0:
        yield replace(case, density=0.0)
        yield replace(case, density=round(case.density / 2, 3))
    # 5. Reset configuration knobs one at a time.
    if case.redistribute is not None:
        yield replace(case, redistribute=None)
    if case.compress_requests:
        yield replace(case, compress_requests=False)
    if case.result_block is not None:
        yield replace(case, result_block=None)
    if case.vector_extra:
        yield replace(case, vector_extra=0)
    if case.field_dtype is not None:
        yield replace(case, field_dtype=None)
    if case.dtype != "float64":
        yield replace(case, dtype="float64")
    if case.machine != "cm5":
        yield replace(case, machine="cm5")
    if case.prs != "auto":
        yield replace(case, prs="auto")
    if case.m2m_schedule != "linear":
        yield replace(case, m2m_schedule="linear")
    if case.scheme != "sss":
        yield replace(case, scheme="sss")
    if case.pad:
        yield replace(case, pad=False)
    if case.seed != 0:
        yield replace(case, seed=0)


def _key(case: ConformanceCase) -> str:
    return json.dumps(case.to_dict(), sort_keys=True)


def shrink_case(
    case: ConformanceCase,
    failing: Callable[[ConformanceCase], bool] | None = None,
    max_shrink: int = 200,
) -> tuple[ConformanceCase, int]:
    """Minimize ``case`` while ``failing`` stays true.

    ``failing`` defaults to "the oracle rejects it".  Returns the smallest
    failing case found plus the number of oracle evaluations spent (capped
    at ``max_shrink``).  The input case is assumed to fail; it is returned
    unchanged when the budget is zero or nothing smaller still fails.
    """
    if failing is None:
        failing = lambda c: not run_case(c).ok  # noqa: E731
    current = case.normalized()
    seen = {_key(current)}
    evals = 0
    improved = True
    while improved and evals < max_shrink:
        improved = False
        for cand in _candidates(current):
            cand = cand.normalized()
            key = _key(cand)
            if key in seen:
                continue
            seen.add(key)
            evals += 1
            if failing(cand):
                current = cand
                improved = True
                break  # restart from the shrunk case
            if evals >= max_shrink:
                break
    return current, evals
