"""The parallel PACK program (Sections 4.1, 6.1, 6.2).

Stage 1 ranks the selected elements (:mod:`repro.core.ranking`); stage 2
redistributes them to the block-distributed result vector with one
many-to-many personalized communication.  The configured scheme decides
what bookkeeping the ranking scan stores, whether a second local scan is
needed, and how messages are encoded — all of which show up as different
simulated-time charges and message volumes.

Phases charged (visible in ``RunResult.phase_breakdown()``):

=============================  ==========================================
``pack.ranking.initial``       local scan, in-slice ranks, PS_0/RS_0
``pack.ranking.prs.dim<i>``    prefix-reduction-sum along grid dim i
``pack.ranking.intermediate.dim<i>``  segmented local prefix sums
``pack.ranking.final``         base-rank collapse to PS_f
``pack.sendl``                 per-scheme rank/destination derivation
``pack.rescan``                CSS/CMS second scan of non-empty slices
``pack.compose``               message buffer construction
``pack.comm``                  many-to-many personalized communication
``pack.decompose``             receiver-side placement into V's block
=============================  ==========================================

The paper's "local computation" measurement corresponds to every phase
except ``pack.ranking.prs.*`` and ``pack.comm``; see
:func:`repro.core.api.local_computation_time`.

**Plan/execute split** (:mod:`repro.core.plan`): everything up to and
including ``pack.rescan`` depends only on the mask and the geometry —
never on the array data.  ``capture=True`` records that compile prefix
(index maps + exact charges) into a :class:`~repro.core.plan.PackRankPlan`
returned on ``PackLocal.rank_plan``; ``plan=<rank plan>`` replays it
instead of recomputing, then runs only compose/comm/decompose for real.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Generator

import numpy as np

from ..hpf.grid import GridLayout
from ..hpf.vector import VectorLayout
from ..machine.context import Context
from ..machine.m2m import exchange
from .costs import StepCosts
from .messages import (
    compose_pair_messages,
    compose_segment_messages,
    place_pair_message,
    place_segment_message,
)
from .plan import ChargeRecorder, PackRankPlan, replay_charges
from .ranking import (
    LocalRanking,
    ranking_phase_names,
    ranking_program,
    slice_scan_lengths,
    slice_view,
)
from .schemes import PackConfig
from .storage import SelectedElements, extract_selected, selected_from_plan

__all__ = ["PackLocal", "pack_program", "result_vector_layout"]


@dataclass
class PackLocal:
    """Per-rank outcome of the PACK program.

    Attributes
    ----------
    vector_block:
        this rank's block of the result vector.
    size:
        global result size (identical on every rank).
    e_i / e_a:
        selected elements sent from / received by this rank.
    gs / gr:
        message segments composed / decomposed (CMS; 0 otherwise).
    words_out:
        data words this rank contributed to the redistribution exchange.
    rank_plan:
        the compiled :class:`~repro.core.plan.PackRankPlan` when the run
        was invoked with ``capture=True``; ``None`` otherwise.
    """

    vector_block: np.ndarray
    size: int
    e_i: int
    e_a: int
    gs: int
    gr: int
    words_out: int
    rank_plan: PackRankPlan | None = None


def result_vector_layout(size: int, nprocs: int, config: PackConfig) -> VectorLayout:
    """Layout of the result vector: BLOCK unless ``config.result_block``
    forces a block-cyclic block size (Section 6.2 sensitivity knob)."""
    if config.result_block is None:
        return VectorLayout.block(size, nprocs)
    return VectorLayout.cyclic(size, nprocs, w=config.result_block)


def _check_vector_geometry(
    rank: int, size: int, n_result: int | None, pad_block
) -> None:
    """Up-front VECTOR-argument validation.

    Without it, a result vector longer than the packed data but no pad
    vector left the tail of the ``np.empty`` block uninitialized, only to
    die later in the received-element count check as a bare
    ``AssertionError`` — validate the geometry where it is decided and
    say which counts disagree.
    """
    if n_result is not None and n_result > size and pad_block is None:
        raise ValueError(
            f"rank {rank}: PACK's VECTOR has {n_result} elements but the "
            f"mask selects only {size}; positions {size}..{n_result - 1} "
            f"need a pad vector (pass pad_block= alongside n_result=)"
        )


def _check_block(rank: int, what: str, block: np.ndarray, grid: GridLayout) -> None:
    if block.shape != grid.local_shape:
        raise ValueError(
            f"rank {rank}: {what} block shape {block.shape} != {grid.local_shape}"
        )


def pack_prefix(
    ctx: Context,
    local_array: np.ndarray,
    local_mask: np.ndarray | None,
    grid: GridLayout,
    config: PackConfig,
    costs: StepCosts,
    phase_prefix: str,
    plan: PackRankPlan | None = None,
    capture: bool = False,
    n_result: int | None = None,
    pad_block: np.ndarray | None = None,
    ranking_result: LocalRanking | None = None,
) -> Generator[Any, Any, tuple]:
    """PACK's mask-dependent compile prefix on one rank (shared with the
    gang PACK of :mod:`repro.core.multi`).

    With ``plan`` it replays the recorded ranking/sendl/rescan charges
    under ``phase_prefix`` and rebinds the plan to ``local_array``;
    otherwise it runs ranking (unless ``ranking_result`` is given), the
    per-scheme rank/destination derivation and the CSS/CMS second scan,
    recording them into a :class:`~repro.core.plan.PackRankPlan` when
    ``capture`` is set.  Returns ``(selected elements, Size, result
    layout, captured plan or None)``.
    """
    scheme = config.scheme
    if plan is not None:
        size = plan.size
        _check_vector_geometry(ctx.rank, size, n_result, pad_block)
        replay_charges(ctx, plan.charges, phase_prefix)
        vec = result_vector_layout(
            n_result if n_result is not None else size, ctx.size, config
        )
        return selected_from_plan(plan, local_array), size, vec, None

    local_mask = np.asarray(local_mask, dtype=bool)
    _check_block(ctx.rank, "mask", local_mask, grid)
    recorder = ChargeRecorder(ctx) if capture else None
    t_compile = perf_counter() if capture else 0.0

    # ---------------------------------------------- stage 1: ranking
    if ranking_result is None:
        ranking_result = yield from ranking_program(
            ctx,
            local_mask,
            grid,
            scheme=scheme,
            prs=config.prs,
            phase_prefix=f"{phase_prefix}.ranking",
        )
    size = ranking_result.size
    if n_result is not None and n_result < size:
        raise ValueError(
            f"PACK's VECTOR has {n_result} elements but the mask selects {size}"
        )
    _check_vector_geometry(ctx.rank, size, n_result, pad_block)
    vec = result_vector_layout(n_result if n_result is not None else size,
                               ctx.size, config)

    # ------------------------------ stage 2a: ranks and destinations
    ctx.phase(f"{phase_prefix}.sendl")
    sel = extract_selected(local_array, local_mask, ranking_result, grid, vec)
    ctx.work(
        costs.final_rank_elements(
            C=ranking_result.c, E_i=sel.count, Gs_i=sel.segment_count
        )
    )

    # ----------------------------- stage 2b: second scan (CSS/CMS)
    if not scheme.stores_records:
        ctx.phase(f"{phase_prefix}.rescan")
        view = slice_view(local_mask, grid)
        scan2 = int(slice_scan_lengths(view, config.early_exit_scan).sum())
        ctx.work(costs.second_scan(ranking_result.c, scan2))

    captured = None
    if capture:
        phase_names = ranking_phase_names(grid.d, f"{phase_prefix}.ranking")
        phase_names.append(f"{phase_prefix}.sendl")
        if not scheme.stores_records:
            phase_names.append(f"{phase_prefix}.rescan")
        captured = PackRankPlan(
            positions=sel.positions,
            ranks=sel.ranks,
            dests=sel.dests,
            slice_ids=sel.slice_ids,
            size=size,
            charges=recorder.finish(ctx, phase_names, phase_prefix),
            compile_wall=perf_counter() - t_compile,
        )
    return sel, size, vec, captured


def pack_move(
    ctx: Context,
    sel: SelectedElements,
    vec: VectorLayout,
    config: PackConfig,
    costs: StepCosts,
    dtype,
    phase_prefix: str,
    suffix: str = "",
    tag: int | None = None,
) -> Generator[Any, Any, tuple]:
    """Compose, exchange and place one array's selected elements (shared
    with the gang PACK, which labels each array's phases with ``suffix``
    and exchanges on its own ``tag``).  Returns ``(vector block, e_a, gr,
    words_out)``."""
    scheme = config.scheme
    # -------------------------------------------- stage 2c: message composition
    ctx.phase(f"{phase_prefix}.compose{suffix}")
    if scheme.uses_segments:
        outgoing = compose_segment_messages(sel)
    else:
        outgoing = compose_pair_messages(sel)
    words = {dest: msg.words for dest, msg in outgoing.items()}
    ctx.work(costs.compose(
        sel.count, sel.segment_count if scheme.uses_segments else 0
    ))

    # --------------------------------- stage 2d: many-to-many communication
    ctx.phase(f"{phase_prefix}.comm{suffix}")
    received = yield from exchange(
        ctx,
        outgoing,
        words=words,
        schedule=config.m2m_schedule,
        self_copy_charge=config.charge_self_copy,
        **({} if tag is None else {"tag": tag}),
    )

    # ----------------------------------------- stage 2e: placement into V
    ctx.phase(f"{phase_prefix}.decompose{suffix}")
    block = np.empty(vec.local_size(ctx.rank), dtype=dtype)
    e_a = 0
    gr = 0
    for source in sorted(received):
        msg = received[source]
        if scheme.uses_segments:
            e_a += place_segment_message(block, msg, vec)
            gr += msg.segments
        else:
            e_a += place_pair_message(block, msg, vec)
    ctx.work(costs.decompose(e_a, gr))
    return block, e_a, gr, sum(words.values())


def pack_program(
    ctx: Context,
    local_array: np.ndarray,
    local_mask: np.ndarray | None,
    grid: GridLayout,
    config: PackConfig,
    pad_block: np.ndarray | None = None,
    n_result: int | None = None,
    ranking_result: LocalRanking | None = None,
    phase_prefix: str = "pack",
    plan: PackRankPlan | None = None,
    capture: bool = False,
) -> Generator[Any, Any, PackLocal]:
    """SPMD PACK on one rank.  All ranks call together with aligned blocks.

    ``ranking_result`` may be supplied by a caller that already ranked the
    mask (the redistribution pre-passes do); otherwise the ranking stage
    runs here.

    ``pad_block`` / ``n_result`` implement Fortran 90's optional ``VECTOR``
    argument: the result vector has ``n_result`` elements (>= Size) and
    positions past the packed data take the pad vector's values.
    ``pad_block`` is this rank's block of the pad vector under the result
    layout for ``n_result`` elements.

    ``plan`` executes a compiled :class:`~repro.core.plan.PackRankPlan`
    (the mask may then be ``None`` — it is not consulted); ``capture``
    compiles one while running normally and returns it on the result.
    The two are mutually exclusive.
    """
    if plan is not None and capture:
        raise ValueError("pack_program: plan= and capture= are mutually exclusive")
    local_array = np.asarray(local_array)
    _check_block(ctx.rank, "array", local_array, grid)
    scheme = config.scheme
    costs = StepCosts(local=ctx.spec.local, scheme=scheme, d=grid.d)

    sel, size, vec, captured = yield from pack_prefix(
        ctx, local_array, local_mask, grid, config, costs, phase_prefix,
        plan=plan, capture=capture, n_result=n_result, pad_block=pad_block,
        ranking_result=ranking_result,
    )
    e_i = sel.count
    gs = sel.segment_count if scheme.uses_segments else 0
    block, e_a, gr, words_out = yield from pack_move(
        ctx, sel, vec, config, costs, local_array.dtype, phase_prefix
    )

    if ctx.metrics is not None:
        # Per-rank redistribution quantities of Section 6: elements sent /
        # received, message segments, and wire volume contributed.
        ctx.count("pack.calls")
        ctx.observe("pack.elements_out", e_i)
        ctx.observe("pack.elements_in", e_a)
        ctx.observe("pack.words_out", words_out)
        if scheme.uses_segments:
            ctx.observe("pack.segments_out", gs)

    if pad_block is None:
        expected = block.size
    else:
        # Fortran 90 VECTOR argument: local positions past the packed data
        # take the pad vector's values (a streaming local copy).
        my_globals = vec.globals_(ctx.rank)
        tail = my_globals >= size
        pad_block = np.asarray(pad_block)
        if pad_block.shape != block.shape:
            raise ValueError(
                f"rank {ctx.rank}: pad block shape {pad_block.shape} != "
                f"{block.shape}"
            )
        block[tail] = pad_block[tail]
        ctx.work(int(tail.sum()))
        expected = int((~tail).sum())
    if e_a != expected:
        raise AssertionError(
            f"rank {ctx.rank}: received {e_a} elements, expected {expected}"
        )

    return PackLocal(
        vector_block=block,
        size=size,
        e_i=e_i,
        e_a=e_a,
        gs=gs,
        gr=gr,
        words_out=words_out,
        rank_plan=captured,
    )
