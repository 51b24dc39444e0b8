"""The parallel UNPACK program (Sections 4.2, 6.1).

UNPACK scatters a distributed input vector ``V`` into the mask-true
positions of a result array conformable with / aligned to the mask; where
the mask is false the result takes the field array ``F`` (a purely local
copy).

The ranking stage is identical to PACK's.  The redistribution stage is a
READ, so *two-phase* communication is required (no data owner knows who
needs its elements): each processor first sends each vector owner the list
of ranks it needs (phase A), then owners send the values back (phase B).
Consequently UNPACK's communication volume is roughly **twice** PACK's —
the paper's Section 4.2 observation, reproduced by the Figure 5 benchmark.

Schemes: SSS stores per-element bookkeeping during the ranking scan; CSS
re-derives positions by a second scan (Section 7 measures exactly these
two for UNPACK; the compact *message* scheme does not apply because
requests must carry explicit ranks either way).

Phases charged: ``unpack.ranking.*``, ``unpack.requests``,
``unpack.comm.request``, ``unpack.serve``, ``unpack.comm.reply``,
``unpack.place``, ``unpack.merge``.

**Plan/execute split** (:mod:`repro.core.plan`): everything through the
phase-A request exchange is mask-derived — including which requests each
rank *receives*, since senders are deterministic in the mask.  A compiled
:class:`~repro.core.plan.UnpackRankPlan` therefore carries each rank's
incoming request tables, and a plan execution skips phase A outright:
only the value replies (phase B) move for real.
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
from .messages import gather_segments
from .plan import ChargeRecorder, UnpackRankPlan, replay_charges
from .ranking import (
    ranking_phase_names,
    ranking_program,
    slice_scan_lengths,
    slice_view,
)
from .schemes import PackConfig, Scheme
from .storage import extract_selected

__all__ = ["UnpackLocal", "unpack_program", "input_vector_layout"]

_TAG_REPLY = 950


@dataclass
class UnpackLocal:
    """Per-rank outcome of the UNPACK program."""

    array_block: np.ndarray
    size: int
    e_i: int  # masked positions filled on this rank
    served: int  # vector elements this rank supplied to others (self incl.)
    rank_plan: UnpackRankPlan | None = None


def input_vector_layout(n_vector: int, nprocs: int, config: PackConfig) -> VectorLayout:
    """Layout of UNPACK's input vector (BLOCK in all paper experiments)."""
    if config.result_block is None:
        return VectorLayout.block(n_vector, nprocs)
    return VectorLayout.cyclic(n_vector, nprocs, w=config.result_block)


def unpack_program(
    ctx: Context,
    vector_block: np.ndarray,
    local_mask: np.ndarray | None,
    local_field: np.ndarray,
    grid: GridLayout,
    n_vector: int,
    config: PackConfig,
    phase_prefix: str = "unpack",
    plan: UnpackRankPlan | None = None,
    capture: bool = False,
) -> Generator[Any, Any, UnpackLocal]:
    """SPMD UNPACK on one rank.

    ``vector_block`` is this rank's block of the input vector (distributed
    per :func:`input_vector_layout` for global length ``n_vector``);
    ``local_mask`` / ``local_field`` are aligned blocks of the mask and
    field arrays.

    ``plan`` executes a compiled :class:`~repro.core.plan.UnpackRankPlan`
    (the mask may then be ``None``); ``capture`` compiles one while
    running normally and returns it on the result.  Mutually exclusive.
    """
    if plan is not None and capture:
        raise ValueError("unpack_program: plan= and capture= are mutually exclusive")
    vector_block = np.asarray(vector_block)
    local_field = np.asarray(local_field)
    if local_field.shape != grid.local_shape:
        raise ValueError(f"rank {ctx.rank}: field block shape mismatch")
    scheme = config.scheme
    if scheme is Scheme.CMS:
        raise ValueError(
            "UNPACK supports SSS and CSS only (requests carry explicit ranks; "
            "the compact message scheme has no analogue — paper Section 7)"
        )
    costs = StepCosts(local=ctx.spec.local, scheme=scheme, d=grid.d)
    L = int(np.prod(grid.local_shape))
    compress = config.compress_requests and not scheme.stores_records

    if plan is not None:
        # ------------------ execute a compiled plan: replay the compile
        # prefix (ranking, request composition, the whole phase-A
        # exchange) and pick up at the serve stage with the recorded
        # request tables.
        size = plan.size
        if n_vector < size:
            raise ValueError(
                f"UNPACK vector of {n_vector} elements cannot fill {size} mask trues"
            )
        vec = input_vector_layout(n_vector, ctx.size, config)
        expected_block = vec.local_size(ctx.rank)
        if vector_block.shape != (expected_block,):
            raise ValueError(
                f"rank {ctx.rank}: vector block shape {vector_block.shape} != "
                f"({expected_block},) required by the input layout for "
                f"n_vector={n_vector}"
            )
        replay_charges(ctx, plan.charges, phase_prefix)
        e_i = plan.e_i
        positions = plan.positions
        elem_order = plan.elem_order
        request_order = list(plan.request_order)
        request_counts = plan.request_counts
        request_words = plan.request_words
        incoming: dict[int, Any] = plan.incoming
    else:
        local_mask = np.asarray(local_mask, dtype=bool)
        if local_mask.shape != grid.local_shape:
            raise ValueError(f"rank {ctx.rank}: mask block shape mismatch")
        recorder = ChargeRecorder(ctx) if capture else None
        t_compile = perf_counter() if capture else 0.0

        # -------------------------------------------------- stage 1: ranking
        ranking_result = yield from ranking_program(
            ctx,
            local_mask,
            grid,
            scheme=scheme,
            prs=config.prs,
            phase_prefix=f"{phase_prefix}.ranking",
        )
        size = ranking_result.size
        if n_vector < size:
            raise ValueError(
                f"UNPACK vector of {n_vector} elements cannot fill {size} mask trues"
            )
        vec = input_vector_layout(n_vector, ctx.size, config)
        expected_block = vec.local_size(ctx.rank)
        if vector_block.shape != (expected_block,):
            # Catch host/caller slicing errors before they turn into silent
            # truncation or reads of stale padding during the serve stage.
            raise ValueError(
                f"rank {ctx.rank}: vector block shape {vector_block.shape} != "
                f"({expected_block},) required by the input layout for "
                f"n_vector={n_vector}"
            )

        # ----------------------------------- stage 2A: compose rank requests
        ctx.phase(f"{phase_prefix}.requests")
        # Field values act as the placeholder "array"; only positions/ranks used.
        sel = extract_selected(local_field, local_mask, ranking_result, grid, vec)
        e_i = sel.count
        positions = sel.positions
        if not scheme.stores_records:
            view = slice_view(local_mask, grid)
            scan2 = int(slice_scan_lengths(view, config.early_exit_scan).sum())
            ctx.work(costs.second_scan(ranking_result.c, scan2))
        ctx.work(costs.unpack_requests(e_i, sel.segment_count))

        # Group ranks by owner.  Under a block input layout the owners of the
        # ascending ranks are already grouped (contiguous runs); a block-cyclic
        # input layout (``result_block``) revisits owners, so the elements are
        # grouped with one stable sort — preserving ascending-rank order within
        # each destination — and the permutation is remembered so the received
        # values can be scattered back in element order during placement.
        requests: dict[int, np.ndarray] = {}
        request_counts = {}
        request_order = []
        elem_order = None
        if e_i:
            dests = sel.dests
            if np.all(dests[1:] >= dests[:-1]):
                dests_g, ranks_g = dests, sel.ranks
                slices_g = sel.slice_ids
            else:
                elem_order = np.argsort(dests, kind="stable")
                dests_g = dests[elem_order]
                ranks_g = sel.ranks[elem_order]
                slices_g = sel.slice_ids[elem_order]
            bounds = np.concatenate(
                ([0], np.flatnonzero(dests_g[1:] != dests_g[:-1]) + 1, [e_i])
            )
            if compress:
                # Run-length encode: segments of consecutive ranks (the slice
                # property), shipped as (bases, lengths).  A segment breaks at
                # a destination or slice change, and — after grouping — at any
                # rank discontinuity (grouping can abut same-slice elements
                # whose ranks are a full tile apart).  Destination boundaries
                # always start a new segment, so per-destination segment runs
                # are contiguous slices of the global segment arrays.
                brk = np.ones(e_i, dtype=bool)
                if e_i > 1:
                    brk[1:] = (
                        (dests_g[1:] != dests_g[:-1])
                        | (slices_g[1:] != slices_g[:-1])
                        | (ranks_g[1:] != ranks_g[:-1] + 1)
                    )
                seg_starts = np.flatnonzero(brk)
                seg_ends = np.append(seg_starts[1:], e_i)
                # First segment of each destination chunk, by position.
                seg_of_dest = np.searchsorted(seg_starts, bounds).tolist()
            bounds_l = bounds.tolist()
            dest_l = dests_g[bounds[:-1]].tolist()
            for j, dest in enumerate(dest_l):
                a, b = bounds_l[j], bounds_l[j + 1]
                request_counts[dest] = b - a
                if compress:
                    sa, sb = seg_of_dest[j], seg_of_dest[j + 1]
                    requests[dest] = (
                        ranks_g[seg_starts[sa:sb]],
                        seg_ends[sa:sb] - seg_starts[sa:sb],
                    )
                else:
                    requests[dest] = ranks_g[a:b]
                request_order.append(dest)

        ctx.phase(f"{phase_prefix}.comm.request")
        if compress:
            words = {d: 2 * int(r[0].size) for d, r in requests.items()}
        else:
            words = {d: int(r.size) for d, r in requests.items()}
        request_words = sum(words.values())
        incoming = yield from exchange(
            ctx,
            requests,
            words=words,
            schedule=config.m2m_schedule,
            self_copy_charge=config.charge_self_copy,
            )

        if capture:
            phase_names = ranking_phase_names(grid.d, f"{phase_prefix}.ranking")
            phase_names.append(f"{phase_prefix}.requests")
            phase_names.append(f"{phase_prefix}.comm.request")
            captured = UnpackRankPlan(
                positions=positions,
                elem_order=elem_order,
                request_order=tuple(request_order),
                request_counts=dict(request_counts),
                request_words=request_words,
                incoming=dict(incoming),
                size=size,
                e_i=e_i,
                charges=recorder.finish(ctx, phase_names, phase_prefix),
                compile_wall=perf_counter() - t_compile,
            )

    request_set = set(request_order)

    # ------------------------------------------------- stage 2B: serve reads
    ctx.phase(f"{phase_prefix}.serve")
    replies: dict[int, np.ndarray] = {}
    served = 0
    for source in sorted(incoming):
        req = incoming[source]
        if compress:
            bases, lengths = req
            replies[source] = gather_segments(vector_block, bases, lengths, vec)
            served += int(replies[source].size)
            continue
        ranks_req = np.asarray(req)
        n_req = int(ranks_req.size)
        if n_req == 0:
            replies[source] = vector_block[:0]
        elif int(ranks_req[-1]) - int(ranks_req[0]) == n_req - 1:
            # One consecutive rank run addressed to this owner lives in
            # one block: serve it as a slice (view), not a gather.
            g0 = int(ranks_req[0])
            l0 = (g0 // vec.s) * vec.w + g0 % vec.w
            replies[source] = vector_block[l0 : l0 + n_req]
        else:
            replies[source] = vector_block[vec.locals_(ranks_req)]
        served += n_req
    ctx.work(costs.unpack_serve(served))

    # ------------------------------------------------ stage 2B': send replies
    ctx.phase(f"{phase_prefix}.comm.reply")
    P = ctx.size
    got_values: dict[int, np.ndarray] = {}
    if ctx.rank in replies:
        ctx.local_copy(int(replies[ctx.rank].size), charge=config.charge_self_copy)
        got_values[ctx.rank] = replies[ctx.rank]
    for k in range(1, P):
        dest = (ctx.rank + k) % P
        src = (ctx.rank - k) % P
        if dest in replies:
            ctx.send(
                dest, replies[dest], words=int(replies[dest].size), tag=_TAG_REPLY
            )
        if src in request_set:
            msg = yield ctx.recv(source=src, tag=_TAG_REPLY)
            got_values[src] = np.asarray(msg.payload)

    if ctx.metrics is not None:
        # The READ pattern's two-phase volume: requests out, values served.
        ctx.count("unpack.calls")
        ctx.observe("unpack.requests_out", e_i)
        ctx.observe("unpack.request_words", request_words)
        ctx.observe("unpack.served", served)

    # -------------------------------------------------- stage 2C: placement
    ctx.phase(f"{phase_prefix}.place")
    # The output dtype is a pure function of the *global* vector and field
    # dtypes, which every rank's (possibly empty) blocks carry — deciding
    # it from local block sizes would let ranks disagree.
    out_dtype = np.result_type(vector_block.dtype, local_field.dtype)
    # Start from the field (one streaming copy) and scatter the received
    # values into the mask-true positions — equivalent to filling trues
    # then merging falses, without the two boolean-mask passes.
    out_flat = local_field.reshape(-1).astype(out_dtype, copy=True)
    for dest in request_order:
        vals = got_values[dest]
        if vals.size != request_counts[dest]:
            raise AssertionError(
                f"rank {ctx.rank}: reply size mismatch from {dest}"
            )
    if e_i:
        all_values = np.concatenate([got_values[d] for d in request_order])
        if elem_order is None:
            out_flat[positions] = all_values
        else:
            # Replies arrive grouped by destination; scatter them back to
            # the element order the grouping permuted away from.
            out_flat[positions[elem_order]] = all_values
    ctx.work(costs.unpack_place(e_i))

    # ------------------------------------------------ stage 2D: field merge
    # (The host-side merge already happened via the field-initialized
    # output; the simulated charge for the merge pass is unchanged.)
    ctx.phase(f"{phase_prefix}.merge")
    ctx.work(costs.field_merge(L))

    return UnpackLocal(
        array_block=out_flat.reshape(grid.local_shape),
        size=size,
        e_i=e_i,
        served=served,
        rank_plan=captured if capture else None,
    )
