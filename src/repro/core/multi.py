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
cache: the gang runs solo PACK's own compile prefix
(:func:`~repro.core.pack.pack_prefix`: same charges, prefix-relative
names), so a plan compiled by
``pack`` replays under the gang's ``gang.*`` phases and vice versa —
``pack_many(plan_cache=...)`` shares entries with ``pack(plan_cache=...)``
for the same mask and geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Sequence

import numpy as np

from ..hpf.grid import GridLayout
from ..machine.context import Context
from ..machine.spec import CM5
from ..serial.reference import pack_reference
from .api import _TimedResult, _execute, _mask_block
from .costs import StepCosts
from .pack import _check_block, pack_move, pack_prefix, result_vector_layout
from .plan import PackRankPlan
from .schemes import PackConfig
from .storage import selected_from_plan

__all__ = ["PackManyLocal", "PackManyResult", "pack_many_program", "pack_many"]

_GANG_TAG_BASE = 910


@dataclass
class PackManyLocal:
    """Per-rank outcome of a gang PACK."""

    vector_blocks: list[np.ndarray]
    size: int
    e_i: int
    rank_plan: PackRankPlan | None = None


@dataclass
class PackManyResult(_TimedResult):
    """Outcome of a host-level :func:`pack_many` call: ``vectors[k]`` is
    ``PACK(arrays[k], mask)``."""

    vectors: list[np.ndarray] = field(default_factory=list)
    size: int = 0


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

    PACK's own compile prefix (:func:`~repro.core.pack.pack_prefix`) runs
    once, and PACK's data movement (:func:`~repro.core.pack.pack_move`)
    once per array, under ``.compose.{k}`` / ``.comm.{k}`` /
    ``.decompose.{k}`` labels and its own message tag.  ``plan`` /
    ``capture`` are the plan/execute hooks shared with
    :func:`~repro.core.pack.pack_program`, so the same
    :class:`~repro.core.plan.PackRankPlan` serves both.
    """
    if plan is not None and capture:
        raise ValueError(
            "pack_many_program: plan= and capture= are mutually exclusive"
        )
    local_arrays = [np.asarray(a) for a in local_arrays]
    for k, local_array in enumerate(local_arrays):
        _check_block(ctx.rank, f"array {k}", local_array, grid)
    costs = StepCosts(local=ctx.spec.local, scheme=config.scheme, d=grid.d)

    sel0, size, vec, captured = yield from pack_prefix(
        ctx, local_arrays[0], local_mask, grid, config, costs, phase_prefix,
        plan=plan, capture=capture,
    )
    blocks: list[np.ndarray] = []
    for k, local_array in enumerate(local_arrays):
        # Everything but the values is mask-derived and reused as-is.
        sel = sel0 if k == 0 else selected_from_plan(sel0, local_array)
        block, _e_a, _gr, _words = yield from pack_move(
            ctx, sel, vec, config, costs, local_array.dtype, phase_prefix,
            suffix=f".{k}", tag=_GANG_TAG_BASE + k,
        )
        blocks.append(block)

    return PackManyLocal(
        vector_blocks=blocks, size=size, e_i=sel0.count, rank_plan=captured,
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
) -> PackManyResult:
    """Host-level gang PACK: returns a :class:`PackManyResult` whose
    ``vectors`` hold one packed vector per array.

    Each returned vector equals ``PACK(arrays[k], mask)`` exactly; the
    simulated cost amortizes the mask-dependent stages across the gang.

    ``plan_cache`` (``True`` / a :class:`~repro.core.plan_cache.PlanCache`)
    compiles the mask-dependent prefix into a plan keyed as ``op="pack"``
    — shared with :func:`repro.core.api.pack` — and replays it on repeat
    calls with the same mask and geometry; the result's ``plan_info``
    says which.

    ``backend`` runs the gang on any execution backend (``"sim"`` /
    ``"mp"`` / ``"supervised"`` / a :class:`~repro.runtime.Backend`
    instance), exactly like :func:`repro.core.api.pack` — this is the
    batching seam ``repro.serve`` coalesces concurrent requests through.
    """
    if not arrays:
        raise ValueError("pack_many needs at least one array")
    arrays = [np.asarray(a) for a in arrays]
    mask = np.asarray(mask, dtype=bool)
    if isinstance(grid, int):
        grid = (grid,)
    layout = GridLayout.create(mask.shape, grid, block)
    config = PackConfig(scheme=scheme, **config_kw)
    nk = len(arrays)

    def op_args(r, sh):
        blocks = [
            layout.local_block(sh[f"array_{k}"], r, copy=False)
            for k in range(nk)
        ]
        return (blocks, _mask_block(layout, sh, r), layout, config, "gang")

    def collect(run):
        size = run.results[0].size
        vec = result_vector_layout(size, layout.nprocs, config)
        vectors = [
            vec.gather([res.vector_blocks[k] for res in run.results],
                       dtype=a.dtype)
            for k, a in enumerate(arrays)
        ]
        if validate:
            for k, a in enumerate(arrays):
                if not np.array_equal(vectors[k], pack_reference(a, mask)):
                    raise AssertionError(f"gang PACK mismatch on array {k}")
        return {"vectors": vectors, "size": size}

    return _execute(
        "pack_many", pack_many_program, layout, config, mask,
        {f"array_{k}": a for k, a in enumerate(arrays)}, op_args, collect,
        PackManyResult, spec=spec if spec is not None else CM5,
        backend=backend, plan_cache=plan_cache, tracer=tracer,
        metrics=metrics, plan_op="pack",
    )
