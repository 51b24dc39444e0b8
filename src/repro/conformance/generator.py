"""Seeded random draws over the PACK/UNPACK configuration space.

The draw is deliberately biased toward the regions where redistribution
bugs hide: degenerate masks (all-false / all-true get a fixed share),
zero-length and tiny extents, CYCLIC(k) distributions with more processors
than elements, ragged result-vector layouts (``result_block``), mixed
and mixed dtypes.  Everything is a pure function of the stream drawn from
``numpy.random.default_rng(seed)``, so ``generate_cases(seed, n)[i]`` is
the same on every run and platform and CI runs cite ``(seed, count)``
pairs.  A change to the draw itself shifts the stream, which is why the
regression corpus stores whole case dicts, not ``(seed, index)`` pairs.
"""

from __future__ import annotations

import numpy as np

from .cases import ConformanceCase

__all__ = ["draw_case", "generate_cases"]

#: Per-axis extents, weighted toward the degenerate end.
_EXTENTS = (0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48)
_EXTENT_W = (4, 6, 8, 8, 10, 8, 10, 6, 8, 4, 3, 2)

_GRIDS = (1, 2, 3, 4)
_GRID_W = (3, 5, 3, 4)

_DTYPES = ("float64", "float32", "int64", "int32", "int8", "complex128", "bool")
_DTYPE_W = (8, 3, 3, 2, 2, 2, 2)


def _choice(rng: np.random.Generator, items, weights=None):
    if weights is None:
        return items[int(rng.integers(len(items)))]
    w = np.asarray(weights, dtype=float)
    return items[int(rng.choice(len(items), p=w / w.sum()))]


def _draw_axes(rng: np.random.Generator) -> tuple[tuple, tuple, tuple]:
    d = _choice(rng, (1, 2, 3), (10, 6, 4))
    shape, grid, dist = [], [], []
    for _ in range(d):
        n = _choice(rng, _EXTENTS, _EXTENT_W)
        p = _choice(rng, _GRIDS, _GRID_W)
        kind = _choice(rng, ("block", "cyclic", "cyclic_k"), (8, 5, 5))
        if kind == "cyclic_k":
            spec = f"cyclic({_choice(rng, (1, 2, 3, 4), (4, 4, 2, 2))})"
        else:
            spec = kind
        shape.append(n)
        grid.append(p)
        dist.append(spec)
    # Keep the simulated machine small: trim processors before elements.
    while int(np.prod(grid)) > 16:
        j = int(np.argmax(grid))
        grid[j] = max(1, grid[j] // 2)
    while int(np.prod([max(n, 1) for n in shape])) > 4096:
        j = int(np.argmax(shape))
        shape[j] = max(1, shape[j] // 2)
    return tuple(shape), tuple(grid), tuple(dist)


def _draw_mask(rng: np.random.Generator) -> tuple[str, float]:
    kind = _choice(
        rng, ("random", "all_false", "all_true", "stripe", "first"),
        (10, 2, 2, 2, 2),
    )
    if kind == "random":
        density = _choice(
            rng,
            (0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0),
            (1, 2, 3, 4, 3, 2, 1),
        )
    elif kind == "first":
        density = float(rng.uniform(0.1, 0.9))
    else:
        density = 0.5
    return kind, float(density)


def draw_case(rng: np.random.Generator, seed: int = 0) -> ConformanceCase:
    """One random case; ``seed`` feeds the case's own data streams."""
    shape, grid, dist = _draw_axes(rng)
    op = _choice(
        rng, ("pack", "unpack", "pack_vector", "roundtrip", "ranking"),
        (10, 8, 3, 4, 3),
    )
    scheme = _choice(rng, ("sss", "css", "cms"))
    mask_kind, density = _draw_mask(rng)
    dtype = _choice(rng, _DTYPES, _DTYPE_W)
    field_dtype = None
    if op == "unpack" and rng.random() < 0.3:
        field_dtype = _choice(rng, _DTYPES, _DTYPE_W)
    result_block = None
    if rng.random() < 0.35:
        result_block = int(_choice(rng, (1, 2, 3, 4), (4, 3, 2, 2)))
    redistribute = None
    if op in ("pack", "pack_vector", "roundtrip") and rng.random() < 0.2:
        redistribute = _choice(rng, ("selected", "whole"))
    compress = (
        op in ("unpack", "roundtrip")
        and scheme != "sss"
        and bool(rng.random() < 0.3)
    )
    machine = _choice(rng, ("cm5", "cluster", "ideal"), (6, 2, 2))
    prs_pool = ("auto", "direct", "split", "ctrl") if machine == "cm5" else (
        "auto", "direct", "split")
    prs = _choice(rng, prs_pool)
    m2m = _choice(rng, ("linear", "naive", "direct"), (6, 2, 2))
    vector_extra = 0
    if op in ("unpack", "pack_vector") and rng.random() < 0.3:
        vector_extra = int(rng.integers(1, 9))
    case = ConformanceCase(
        op=op, seed=seed, shape=shape, grid=grid, dist=dist,
        scheme=scheme, mask_kind=mask_kind, density=density,
        dtype=dtype, field_dtype=field_dtype, result_block=result_block,
        redistribute=redistribute, compress_requests=compress,
        prs=prs, m2m_schedule=m2m, machine=machine,
        pad=bool(rng.random() < 0.2), vector_extra=vector_extra,
    )
    return case.normalized()


def generate_cases(seed: int, n: int) -> list[ConformanceCase]:
    """The first ``n`` cases of stream ``seed`` (the same on every run)."""
    rng = np.random.default_rng(seed)
    return [draw_case(rng, seed=int(rng.integers(0, 1 << 31))) for _ in range(n)]
