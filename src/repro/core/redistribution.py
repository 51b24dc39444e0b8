"""Cyclic-to-block redistribution pre-passes for PACK (Section 6.3).

The ranking overhead is governed by the tile counts ``T_i``, which are
maximal for cyclic distributions.  When the input is distributed cyclically
the paper proposes redistributing to BLOCK first and then packing with the
compact message scheme (which is the best scheme on a block distribution):

**Red.1 — redistribution of selected data**
    Only mask-true elements move; each travels with its *global index*
    (the d per-dimension indices combined into one word to halve index
    traffic).  Receivers rebuild temporary array/mask blocks (mask
    initialized false).  Useful when few elements are selected.

**Red.2 — redistribution of whole arrays**
    Both the input array and the mask are redistributed with the general
    engine of :mod:`repro.hpf.redistribute`, paying its two communication-
    detection phases but avoiding the per-element index traffic and
    receiver-side scattering.  Useful when many elements are selected —
    and roughly density-insensitive, since the volume is ``2L`` per rank
    regardless of the mask.

Both return the same result vector as a direct PACK of the original
distribution (ranks depend only on the *global positions* of the trues,
which redistribution preserves).

Phases: ``pack.red.detect``, ``pack.red.comm``, ``pack.red.build`` for
Red.1; Red.2 reuses :func:`repro.hpf.redistribute.redistribute` under
``pack.red.array`` / ``pack.red.mask``; the subsequent block-distribution
PACK charges its usual ``pack.*`` phases.
"""

from __future__ import annotations

from dataclasses import replace
from time import perf_counter
from typing import Any, Generator

import numpy as np

from ..hpf.dimlayout import DimLayout
from ..hpf.grid import GridLayout
from ..hpf.redistribute import detection_phase_ops, redistribute
from ..machine.context import Context
from ..machine.m2m import exchange
from .pack import PackLocal, pack_program
from .plan import ChargeRecorder, Red1RankPlan, Red2RankPlan
from .schemes import PackConfig, Scheme

__all__ = [
    "block_layout_of",
    "pack_red1_program",
    "pack_red2_program",
    "unpack_red_program",
]


def block_layout_of(grid: GridLayout) -> GridLayout:
    """The BLOCK layout with the same shape and processor grid."""
    return GridLayout(
        dims=tuple(DimLayout(n=d.n, p=d.p, w=d.n // d.p) for d in grid.dims)
    )


def _cms(config: PackConfig) -> PackConfig:
    """The paper adds each pre-pass to a CMS pack on the block distribution."""
    return replace(config, scheme=Scheme.CMS)


def pack_red1_program(
    ctx: Context,
    local_array: np.ndarray,
    local_mask: np.ndarray | None,
    grid: GridLayout,
    config: PackConfig,
    pad_block: np.ndarray | None = None,
    n_result: int | None = None,
    plan: Red1RankPlan | None = None,
    capture: bool = False,
) -> Generator[Any, Any, PackLocal]:
    """PACK with the *selected data* redistribution pre-pass (Red.1).

    ``plan`` / ``capture`` are the plan/execute hooks
    (:mod:`repro.core.plan`).  The exchange always runs for real — with a
    plan the messages are rebuilt from the stored index maps, so the wire
    traffic (and therefore the simulated timeline) is identical to the
    compile run while the mask scan, destination computation and
    receiver-side index decomposition are skipped.
    """
    if plan is not None and capture:
        raise ValueError(
            "pack_red1_program: plan= and capture= are mutually exclusive"
        )
    local_array = np.asarray(local_array)
    block_grid = block_layout_of(grid)
    local = ctx.spec.local
    d = grid.d
    L = int(np.prod(grid.local_shape))

    if plan is not None:
        # ------------------------------------- detect: replay + re-gather
        from .plan import replay_charges

        replay_charges(ctx, plan.detect_charges, "pack")
        flat_vals = local_array.ravel()
        outgoing = {
            dest: (g_idx, flat_vals[src_flat])
            for dest, (src_flat, g_idx) in plan.out.items()
        }
        e_sel = plan.e_sel
    else:
        local_mask = np.asarray(local_mask, dtype=bool)
        recorder = ChargeRecorder(ctx) if capture else None
        t_compile = perf_counter() if capture else 0.0

        # ------------------------------------------- detect selected elements
        ctx.phase("pack.red.detect")
        flat_mask = local_mask.ravel()
        positions = np.flatnonzero(flat_mask)
        e_sel = int(positions.size)
        values = local_array.ravel()[positions]
        global_flat = grid.global_flat_index(ctx.rank).ravel()[positions]
        # One send-phase schedule construction ([7] — receivers need none,
        # the messages carry indices), a mask scan, and per selected element
        # the combination of d indices into one global index plus the
        # destination computation.
        ctx.work(detection_phase_ops(grid))
        ctx.work(local.seq * L)
        ctx.work(local.rand * (d + 1) * e_sel)

        # Destination rank under the block layout, from the global flat index.
        if e_sel:
            dest = np.zeros(e_sel, dtype=np.int64)
            rank_stride = 1
            rem = global_flat.copy()
            # peel per-dimension indices: dimension 0 varies fastest.
            for i in range(d):
                n_i = block_grid.dims[i].n
                g_i = rem % n_i
                rem //= n_i
                dest += block_grid.dims[i].owners(g_i) * rank_stride
                rank_stride *= block_grid.dims[i].p
        else:
            dest = np.empty(0, dtype=np.int64)

        outgoing = {}
        out_index: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        if e_sel:
            order = np.argsort(dest, kind="stable")
            ds = dest[order]
            boundaries = np.flatnonzero(np.diff(ds)) + 1
            for chunk in np.split(np.arange(e_sel), boundaries):
                rows = order[chunk]
                outgoing[int(ds[chunk[0]])] = (global_flat[rows], values[rows])
                if capture:
                    out_index[int(ds[chunk[0]])] = (
                        positions[rows], global_flat[rows]
                    )
        if capture:
            detect_charges = recorder.finish(ctx, ["pack.red.detect"], "pack")

    words = {dd: 2 * int(v[0].size) for dd, v in outgoing.items()}

    if ctx.metrics is not None:
        # Red.1 economics: volume scales with selected elements (2 words
        # each: combined global index + value), not with L.
        ctx.count("red1.calls")
        ctx.observe("red1.selected", e_sel)
        ctx.observe("red1.words_out", sum(words.values()))

    # ---------------------------------------------------------- move them
    ctx.phase("pack.red.comm")
    received = yield from exchange(
        ctx,
        outgoing,
        words=words,
        schedule=config.m2m_schedule,
        self_copy_charge=config.charge_self_copy,
    )

    # --------------------------------------------- rebuild temporary blocks
    ctx.phase("pack.red.build")
    temp_array = np.zeros(block_grid.local_shape, dtype=local_array.dtype)
    ctx.work(local.seq * L)  # initialize the temporary mask to false
    ta = temp_array.ravel()
    if plan is not None:
        # The stored index maps replace the per-element decomposition; the
        # charges are the same function of L and e_recv as the compile run.
        for source in sorted(received):
            _, vals = received[source]
            lf = plan.incoming.get(source)
            if lf is None or lf.size == 0:
                continue
            ta[lf] = vals
        e_recv = plan.e_recv
        ctx.work(local.rand * (3 * d + 4) * e_recv)
        # The inner PACK replays its own plan, so the temporary mask is
        # never consulted.
        result = yield from pack_program(
            ctx, temp_array, None, block_grid, _cms(config),
            pad_block=pad_block, n_result=n_result,
            plan=plan.inner, capture=False,
        )
        return result

    temp_mask = np.zeros(block_grid.local_shape, dtype=bool)
    e_recv = 0
    tm = temp_mask.ravel()
    incoming_index: dict[int, np.ndarray] = {}
    for source in sorted(received):
        g_idx, vals = received[source]
        g_idx = np.asarray(g_idx, dtype=np.int64)
        if g_idx.size == 0:
            continue
        # Decompose the global flat index into a local flat index under the
        # block layout (dimension 0 fastest).
        local_flat = np.zeros(g_idx.size, dtype=np.int64)
        stride = 1
        rem = g_idx.copy()
        for i in range(d):
            dim = block_grid.dims[i]
            g_i = rem % dim.n
            rem //= dim.n
            local_flat += dim.locals_(g_i) * stride
            stride *= dim.l
        tm[local_flat] = True
        ta[local_flat] = vals
        e_recv += int(g_idx.size)
        if capture:
            incoming_index[source] = local_flat
    # Per received element: decompose the global index into d local
    # indices (integer divisions, ~3 scattered-op equivalents each), then
    # two scattered writes (temp array + temp mask) plus buffer advance.
    ctx.work(local.rand * (3 * d + 4) * e_recv)

    # -------------------------------------- pack on the block distribution
    result = yield from pack_program(
        ctx, temp_array, temp_mask, block_grid, _cms(config),
        pad_block=pad_block, n_result=n_result,
        capture=capture,
    )
    if capture:
        result.rank_plan = Red1RankPlan(
            out=out_index,
            incoming=incoming_index,
            e_sel=e_sel,
            e_recv=e_recv,
            detect_charges=detect_charges,
            inner=result.rank_plan,
            compile_wall=perf_counter() - t_compile,
        )
    return result


def pack_red2_program(
    ctx: Context,
    local_array: np.ndarray,
    local_mask: np.ndarray,
    grid: GridLayout,
    config: PackConfig,
    pad_block: np.ndarray | None = None,
    n_result: int | None = None,
    plan: Red2RankPlan | None = None,
    capture: bool = False,
) -> Generator[Any, Any, PackLocal]:
    """PACK with the *whole arrays* redistribution pre-pass (Red.2).

    ``plan`` / ``capture`` (:mod:`repro.core.plan`): the pre-pass is pure
    data movement and always runs for real — the mask is still
    redistributed on a plan hit so the wire traffic (and the simulated
    timeline) matches the compile run exactly — while the inner
    block-layout PACK replays its compiled prefix, skipping the ranking
    recompute that dominates the compile cost.
    """
    if plan is not None and capture:
        raise ValueError(
            "pack_red2_program: plan= and capture= are mutually exclusive"
        )
    local_array = np.asarray(local_array)
    local_mask = np.asarray(local_mask, dtype=bool)
    block_grid = block_layout_of(grid)
    ctx.count("red2.calls")
    t_compile = perf_counter() if capture else 0.0

    # The two arrays are conformable and aligned, so they share one
    # communication schedule: the two detection phases (send + receive)
    # are charged once, on the array pass.
    new_array = yield from redistribute(
        ctx, grid, block_grid, local_array,
        phase="pack.red.array", schedule=config.m2m_schedule,
    )
    new_mask = yield from redistribute(
        ctx, grid, block_grid, local_mask,
        phase="pack.red.mask", schedule=config.m2m_schedule,
        charge_detection=False,
    )

    result = yield from pack_program(
        ctx, new_array,
        None if plan is not None else new_mask.astype(bool),
        block_grid, _cms(config),
        pad_block=pad_block, n_result=n_result,
        plan=plan.inner if plan is not None else None, capture=capture,
    )
    if capture:
        result.rank_plan = Red2RankPlan(
            inner=result.rank_plan,
            compile_wall=perf_counter() - t_compile,
        )
    return result


def unpack_red_program(
    ctx: Context,
    vector_block: np.ndarray,
    local_mask: np.ndarray,
    local_field: np.ndarray,
    grid: GridLayout,
    n_vector: int,
    config: PackConfig,
):
    """UNPACK with a cyclic-to-block pre-pass — the option the paper rules
    *out* (Section 6.3), implemented so the claim can be measured.

    "Note that this redistribution scheme will not be a feasible option
    for UNPACK.  Since UNPACK is a READ operation, we should return
    result array A with the original distribution ... This may result in
    two steps of redistributions: one for M and F before performing
    UNPACK, and the other for A before returning A."

    The program does exactly that: redistribute the mask and field to
    BLOCK (one shared communication schedule), run UNPACK there, then
    redistribute the result back to the original layout (a second, fresh
    schedule).  Table-II-style comparisons show it losing to the direct
    cyclic UNPACK — the paper's conclusion.
    """
    from .unpack import unpack_program

    local_mask = np.asarray(local_mask, dtype=bool)
    local_field = np.asarray(local_field)
    block_grid = block_layout_of(grid)

    # Pre-pass: mask + field share one schedule (aligned arrays).
    new_mask = yield from redistribute(
        ctx, grid, block_grid, local_mask,
        phase="unpack.red.mask", schedule=config.m2m_schedule,
    )
    new_field = yield from redistribute(
        ctx, grid, block_grid, local_field,
        phase="unpack.red.field", schedule=config.m2m_schedule,
        charge_detection=False,
    )

    result = yield from unpack_program(
        ctx, vector_block, new_mask.astype(bool), new_field, block_grid,
        n_vector, config,
    )

    # Post-pass: the result must come back in the original distribution —
    # a different layout pair, so a fresh schedule (the "second step").
    restored = yield from redistribute(
        ctx, block_grid, grid, result.array_block,
        phase="unpack.red.return", schedule=config.m2m_schedule,
    )
    result.array_block = restored
    return result
