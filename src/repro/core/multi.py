"""Gang PACK: many arrays, one mask, one ranking.

HPF programs routinely pack several attribute arrays under the same mask
(`xs = PACK(x, alive); vs = PACK(v, alive); qs = PACK(q, alive)`), and a
good runtime ranks the mask *once*: the ranking stage (and for the
compact schemes the second scan's bookkeeping) depends only on the mask,
so k packs share one ranking, one send-vector derivation and one count
detection — only the per-array message composition, data exchange and
placement repeat.

:func:`pack_many_program` / :func:`pack_many` implement that amortization;
``tests/core/test_multi.py`` checks both the results (each vector equals
its solo PACK) and the economics (k gang-packed arrays cost well under k
solo packs).

With the plan/execute split (:mod:`repro.core.plan`) the gang's
amortization is the special case k-arrays-one-call of the general plan
cache: the gang's compile prefix is *identical* to solo PACK's (same
phases, same charges, prefix-relative names), so a plan compiled by
``pack`` replays under the gang's ``gang.*`` phases and vice versa —
``pack_many(plan_cache=...)`` shares entries with ``pack(plan_cache=...)``
for the same mask and geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Generator, Sequence

import numpy as np

from ..hpf.grid import GridLayout
from ..machine.context import Context
from ..machine.m2m import exchange
from .costs import StepCosts
from .messages import (
    compose_pair_messages,
    compose_segment_messages,
    decompose_pair_message,
    decompose_segment_message,
)
from .plan import ChargeRecorder, PackRankPlan, Plan, plan_key, replay_charges
from .plan_cache import resolve_plan_cache
from .ranking import (
    ranking_phase_names,
    ranking_program,
    slice_scan_lengths,
    slice_view,
)
from .schemes import PackConfig
from .storage import SelectedElements, extract_selected, selected_from_plan
from .pack import result_vector_layout

__all__ = ["PackManyLocal", "pack_many_program", "pack_many"]

_GANG_TAG_BASE = 910


@dataclass
class PackManyLocal:
    """Per-rank outcome of a gang PACK."""

    vector_blocks: list[np.ndarray]
    size: int
    e_i: int
    rank_plan: PackRankPlan | None = None


def _replace_values(sel: SelectedElements, local_array: np.ndarray) -> SelectedElements:
    """The selected-element vectors for another array under the same mask:
    everything but the values is mask-derived and reused as-is."""
    return SelectedElements(
        positions=sel.positions,
        values=np.asarray(local_array).ravel()[sel.positions],
        ranks=sel.ranks,
        dests=sel.dests,
        slice_ids=sel.slice_ids,
    )


def pack_many_program(
    ctx: Context,
    local_arrays: Sequence[np.ndarray],
    local_mask: np.ndarray | None,
    grid: GridLayout,
    config: PackConfig,
    phase_prefix: str = "gang",
    plan: PackRankPlan | None = None,
    capture: bool = False,
) -> Generator[Any, Any, PackManyLocal]:
    """SPMD gang PACK on one rank: k arrays, one mask, one ranking.

    ``plan`` / ``capture`` are the plan/execute hooks shared with
    :func:`~repro.core.pack.pack_program` — the gang's compile prefix is
    PACK's, so the same :class:`~repro.core.plan.PackRankPlan` serves both.
    """
    if plan is not None and capture:
        raise ValueError(
            "pack_many_program: plan= and capture= are mutually exclusive"
        )
    scheme = config.scheme
    costs = StepCosts(local=ctx.spec.local, scheme=scheme, d=grid.d)

    if plan is not None:
        # Execute a compiled plan: replay the shared prefix under this
        # program's phase labels, rebind the first array's data.
        size = plan.size
        replay_charges(ctx, plan.charges, phase_prefix)
        vec = result_vector_layout(size, ctx.size, config)
        sel0 = selected_from_plan(plan, np.asarray(local_arrays[0]))
        e_i = sel0.count
        gs = sel0.segment_count if scheme.uses_segments else 0
    else:
        local_mask = np.asarray(local_mask, dtype=bool)
        recorder = ChargeRecorder(ctx) if capture else None
        t_compile = perf_counter() if capture else 0.0

        # ---------------------------------------------- shared: ranking once
        ranking_result = yield from ranking_program(
            ctx, local_mask, grid,
            scheme=scheme, prs=config.prs,
            phase_prefix=f"{phase_prefix}.ranking",
        )
        size = ranking_result.size
        vec = result_vector_layout(size, ctx.size, config)

        ctx.phase(f"{phase_prefix}.sendl")
        sel0 = extract_selected(
            np.asarray(local_arrays[0]), local_mask, ranking_result, grid, vec
        )
        e_i = sel0.count
        gs = sel0.segment_count if scheme.uses_segments else 0
        ctx.work(costs.final_rank_elements(ranking_result.c, e_i, sel0.segment_count))
        if not scheme.stores_records:
            ctx.phase(f"{phase_prefix}.rescan")
            view = slice_view(local_mask, grid)
            scan2 = int(slice_scan_lengths(view, config.early_exit_scan).sum())
            ctx.work(costs.second_scan(ranking_result.c, scan2))

        if capture:
            phase_names = ranking_phase_names(grid.d, f"{phase_prefix}.ranking")
            phase_names.append(f"{phase_prefix}.sendl")
            if not scheme.stores_records:
                phase_names.append(f"{phase_prefix}.rescan")
            captured = PackRankPlan(
                positions=sel0.positions,
                ranks=sel0.ranks,
                dests=sel0.dests,
                slice_ids=sel0.slice_ids,
                size=size,
                charges=recorder.finish(ctx, phase_names, phase_prefix),
                compile_wall=perf_counter() - t_compile,
            )

    # ------------------------------------------- per array: move the data
    blocks: list[np.ndarray] = []
    for k, local_array in enumerate(local_arrays):
        local_array = np.asarray(local_array)
        if local_array.shape != grid.local_shape:
            raise ValueError(
                f"rank {ctx.rank}: array {k} block shape {local_array.shape} "
                f"!= {grid.local_shape}"
            )
        sel = sel0 if k == 0 else _replace_values(sel0, local_array)

        ctx.phase(f"{phase_prefix}.compose.{k}")
        if scheme.uses_segments:
            outgoing = compose_segment_messages(sel)
        else:
            outgoing = compose_pair_messages(sel)
        words = {dest: msg.words for dest, msg in outgoing.items()}
        ctx.work(costs.compose(e_i, gs))

        ctx.phase(f"{phase_prefix}.comm.{k}")
        received = yield from exchange(
            ctx, outgoing, words=words,
            schedule=config.m2m_schedule,
            self_copy_charge=config.charge_self_copy,
            tag=_GANG_TAG_BASE + k,
        )

        ctx.phase(f"{phase_prefix}.decompose.{k}")
        block = np.empty(vec.local_size(ctx.rank), dtype=local_array.dtype)
        e_a = 0
        gr = 0
        for source in sorted(received):
            msg = received[source]
            if scheme.uses_segments:
                pos, vals = decompose_segment_message(msg, vec)
                gr += msg.segments
            else:
                pos, vals = decompose_pair_message(msg, vec)
            block[pos] = vals
            e_a += int(vals.size)
        ctx.work(costs.decompose(e_a, gr))
        blocks.append(block)

    return PackManyLocal(
        vector_blocks=blocks,
        size=size,
        e_i=e_i,
        rank_plan=captured if capture else None,
    )


def pack_many(
    arrays: Sequence[np.ndarray],
    mask: np.ndarray,
    grid,
    block=None,
    scheme="cms",
    spec=None,
    validate: bool = True,
    plan_cache=None,
    backend="sim",
    tracer=None,
    metrics=None,
    **config_kw,
):
    """Host-level gang PACK: returns (list of packed vectors, RunResult).

    Each returned vector equals ``PACK(arrays[k], mask)`` exactly; the
    simulated cost amortizes the mask-dependent stages across the gang.

    ``plan_cache`` (``True`` / a :class:`~repro.core.plan_cache.PlanCache`)
    compiles the mask-dependent prefix into a plan keyed as ``op="pack"``
    — shared with :func:`repro.core.api.pack` — and replays it on repeat
    calls with the same mask and geometry.

    ``backend`` runs the gang on any execution backend (``"sim"`` /
    ``"mp"`` / ``"supervised"`` / a :class:`~repro.runtime.Backend`
    instance), exactly like :func:`repro.core.api.pack` — this is the
    batching seam ``repro.serve`` coalesces concurrent requests through.
    """
    from ..machine.spec import CM5
    from ..runtime.base import get_backend
    from ..serial.reference import pack_reference

    if not arrays:
        raise ValueError("pack_many needs at least one array")
    mask = np.asarray(mask, dtype=bool)
    if isinstance(grid, int):
        grid = (grid,)
    layout = GridLayout.create(mask.shape, grid, block)
    config = PackConfig(scheme=scheme, **config_kw)
    spec_obj = spec if spec is not None else CM5
    exec_backend = get_backend(backend)

    cache = resolve_plan_cache(plan_cache)
    cached_plan = None
    capture = False
    if cache is not None:
        key = plan_key(
            "pack", layout, config, mask,
            n_result=None, spec=spec_obj.name,
            time_domain=exec_backend.time_domain,
        )
        cached_plan = cache.get(key)
        capture = cached_plan is None

    # Each rank slices only its own blocks out of the shared arrays (views
    # in-process; shared-memory slices under "mp").  On a plan hit the mask
    # stays on the host.
    nk = len(arrays)
    shared = {f"array_{k}": np.asarray(a) for k, a in enumerate(arrays)}
    if cached_plan is None:
        shared["mask"] = mask
    rank_plans = cached_plan.ranks if cached_plan is not None else None

    def _rank_args(r, sh):
        blocks = [
            layout.local_block(sh[f"array_{k}"], r, copy=False)
            for k in range(nk)
        ]
        mask_block = (
            layout.local_block(sh["mask"], r, copy=False)
            if rank_plans is None else None
        )
        plan_r = rank_plans[r] if rank_plans is not None else None
        return (blocks, mask_block, layout, config, "gang", plan_r, capture)

    run = exec_backend.run_spmd(
        pack_many_program,
        layout.nprocs,
        make_rank_args=_rank_args,
        shared=shared,
        spec=spec_obj,
        tracer=tracer,
        metrics=metrics,
    )
    if capture:
        cache.put(key, Plan(
            key=key,
            ranks=[run.results[r].rank_plan for r in range(layout.nprocs)],
        ))
    size = run.results[0].size
    vec = result_vector_layout(size, layout.nprocs, config)
    vectors = [
        vec.gather([run.results[r].vector_blocks[k] for r in range(layout.nprocs)],
                   dtype=np.asarray(arrays[k]).dtype)
        for k in range(len(arrays))
    ]
    if validate:
        for k, a in enumerate(arrays):
            expected = pack_reference(np.asarray(a), mask)
            if not np.array_equal(vectors[k], expected):
                raise AssertionError(f"gang PACK mismatch on array {k}")
    return vectors, run
