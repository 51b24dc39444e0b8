"""Crossover block sizes beta1 / beta2 (paper Table I and Section 7).

``beta1`` is the smallest block size at which the compact storage scheme's
local computation beats the simple storage scheme's; ``beta2`` the smallest
at which the compact *message* scheme beats the compact storage scheme.
The paper reports beta1 for mask densities 10-90% plus the structured mask
and notes that both betas always exceed 1 (SSS is unbeatable for cyclic
distributions) and fall as density rises.

Computation uses the closed-form model of :mod:`repro.analysis.model`
(which matches the simulator's charges exactly), scanning the power-of-two
block sizes the paper sweeps.  ``float('inf')`` is returned when the
compact scheme never wins — the paper prints this as infinity for 2-D 10%
masks.
"""

from __future__ import annotations

import math

from ..core.schemes import Scheme
from ..hpf.grid import GridLayout
from ..machine.spec import CM5, MachineSpec
from ..workloads.grids import block_size_sweep
from ..workloads.masks import make_mask
from .model import predict_pack_local_seconds

__all__ = ["find_crossover", "beta1_table", "beta2_table"]


def find_crossover(
    shape,
    grid,
    mask_kind,
    scheme_a: Scheme,
    scheme_b: Scheme,
    spec: MachineSpec = CM5,
    seed: int = 0,
) -> float:
    """Smallest swept block size where ``scheme_b``'s local time <=
    ``scheme_a``'s, or ``inf`` if none.

    2-D sweeps use the same block size on both dimensions, matching the
    paper's experimental constraint.
    """
    mask = make_mask(shape, mask_kind, seed=seed)
    d = len(shape)
    for w in block_size_sweep(shape[-1], grid[-1]):
        block = tuple([w] * d)
        if any(n % (p * w) != 0 for n, p in zip(shape, grid)):
            continue
        layout = GridLayout.create(shape, grid, block)
        t_a = predict_pack_local_seconds(mask, layout, scheme_a, spec)
        t_b = predict_pack_local_seconds(mask, layout, scheme_b, spec)
        if t_b <= t_a:
            return float(w)
    return math.inf


def beta1_table(
    shapes,
    grid,
    mask_kinds,
    spec: MachineSpec = CM5,
    seed: int = 0,
) -> dict[tuple, float]:
    """Table I: SSS -> CSS crossovers, keyed by (shape, mask_kind)."""
    out = {}
    for shape in shapes:
        for mk in mask_kinds:
            out[(tuple(shape), mk)] = find_crossover(
                shape, grid, mk, Scheme.SSS, Scheme.CSS, spec, seed
            )
    return out


def beta2_table(
    shapes,
    grid,
    mask_kinds,
    spec: MachineSpec = CM5,
    seed: int = 0,
) -> dict[tuple, float]:
    """CSS -> CMS crossovers (the paper's beta2), keyed like beta1."""
    out = {}
    for shape in shapes:
        for mk in mask_kinds:
            out[(tuple(shape), mk)] = find_crossover(
                shape, grid, mk, Scheme.CSS, Scheme.CMS, spec, seed
            )
    return out
