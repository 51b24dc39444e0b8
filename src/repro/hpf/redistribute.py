"""Array redistribution with communication detection.

Section 6.3 of the paper reduces cyclic-distribution ranking overhead by
first redistributing the input to BLOCK.  The machinery needed is general
block-cyclic-to-block-cyclic redistribution, citing the communication
detection algorithms of Ranka/Wang/Kumar [7]:

* **communication detection** — compute, from the two layouts alone, which
  local elements go to which destination rank (send detection) and which
  elements will arrive from which source (receive detection).  The [7]
  schedule construction enumerates index *classes per dimension*, so one
  detection phase costs ``DETECT_OPS_PER_GLOBAL_INDEX * sum_i N_i`` — this
  is why detection dominated the paper's 1-D Table II numbers
  (``sum N_i = 16384``) while remaining cheap for 2-D arrays of the same
  total size (``sum N_i = 512``).  On top of the schedule, each moved
  element pays ``ADDR_OPS_PER_ELEMENT`` for its address arithmetic.
* **data exchange** — one many-to-many personalized communication round
  moving the elements; because both sides enumerate elements in global
  order per (source, dest) pair, no per-element indices need to travel for
  a *whole-array* redistribution.  Boolean arrays (masks) are bit-packed
  on the wire (32 elements per word).
"""

from __future__ import annotations

from typing import Any, Generator

import numpy as np

from ..machine.context import Context
from ..machine.m2m import exchange
from .grid import GridLayout

__all__ = [
    "detect_sends",
    "detect_recvs",
    "redistribute",
    "DETECT_OPS_PER_GLOBAL_INDEX",
    "ADDR_OPS_PER_ELEMENT",
]

#: Schedule-construction cost per *global* index per detection phase: the
#: per-dimension class enumeration of [7] (integer div/mod chains).
#: Calibrated so one phase over N = 16384 costs ~139 ms on the CM-5
#: profile, reproducing the paper's Table II 1-D Red.1 column.
DETECT_OPS_PER_GLOBAL_INDEX = 85

#: Per moved element: compute its position in the send buffer / its local
#: address in the destination block (one fused multiply-add per side).
ADDR_OPS_PER_ELEMENT = 2

#: Elements per wire word for bit-packed boolean payloads.
BOOL_PACK = 32


def _dest_rank_and_local(
    src: GridLayout, dst: GridLayout, rank: int
) -> tuple[np.ndarray, np.ndarray]:
    """For every local element of ``rank`` under ``src``: destination rank
    and destination local *flat* index under ``dst``.

    Both returned arrays have the source local block shape.
    """
    if src.shape != dst.shape:
        raise ValueError(f"layout shapes differ: {src.shape} vs {dst.shape}")
    d = src.d
    idx = src.local_global_indices(rank)  # per numpy axis, global indices

    dest_rank = np.zeros(src.local_shape, dtype=np.int64)
    dest_local = np.zeros(src.local_shape, dtype=np.int64)
    rank_stride = 1
    local_stride = 1
    # Paper dimension i: rank stride is prod_{k<i} P_k (dim 0 fastest);
    # local flat index stride (C order over dst.local_shape) is
    # prod_{k<i} L_k for the same reason.
    for i in range(d):  # paper dims, fastest first
        j = d - 1 - i  # numpy axis
        g = idx[j]
        coord = dst.dims[i].owners(g)  # dest coordinate on paper dim i
        loc = dst.dims[i].locals_(g)
        reshape = [1] * d
        reshape[j] = g.size
        dest_rank = dest_rank + coord.reshape(reshape) * rank_stride
        dest_local = dest_local + loc.reshape(reshape) * local_stride
        rank_stride *= dst.dims[i].p
        local_stride *= dst.dims[i].l
    return dest_rank, dest_local


def detect_sends(
    src: GridLayout, dst: GridLayout, rank: int
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Send-side communication detection.

    Returns ``dest_rank -> (src_local_flat, dst_local_flat)`` where both
    index vectors are in matching order, sorted by destination local index
    (global order per destination) — the canonical order both sides agree
    on without exchanging indices.
    """
    dest_rank, dest_local = _dest_rank_and_local(src, dst, rank)
    dr = dest_rank.ravel()
    dl = dest_local.ravel()
    sl = np.arange(dr.size, dtype=np.int64)
    order = np.lexsort((dl, dr))
    dr_sorted = dr[order]
    boundaries = np.flatnonzero(np.diff(dr_sorted)) + 1
    groups = np.split(np.arange(dr.size), boundaries)
    out: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for grp in groups:
        if grp.size == 0:
            continue
        rows = order[grp]
        out[int(dr_sorted[grp[0]])] = (sl[rows], dl[rows])
    return out


def detect_recvs(
    src: GridLayout, dst: GridLayout, rank: int
) -> dict[int, np.ndarray]:
    """Receive-side communication detection.

    Returns ``source_rank -> dst_local_flat`` (sorted ascending), telling
    ``rank`` where to store the elements arriving from each source.  The
    order matches the send side's per-destination order.
    """
    # Reuse the send detection from the opposite perspective: for every
    # local element of `rank` under `dst`, find its owner under `src`.
    src_rank, _src_local = _dest_rank_and_local(dst, src, rank)
    sr = src_rank.ravel()
    dl = np.arange(sr.size, dtype=np.int64)
    order = np.lexsort((dl, sr))
    sr_sorted = sr[order]
    boundaries = np.flatnonzero(np.diff(sr_sorted)) + 1
    groups = np.split(np.arange(sr.size), boundaries)
    out: dict[int, np.ndarray] = {}
    for grp in groups:
        if grp.size == 0:
            continue
        rows = order[grp]
        out[int(sr_sorted[grp[0]])] = dl[rows]
    return out


def detection_phase_ops(layout: GridLayout) -> int:
    """Local work of one communication-detection phase (see module docs)."""
    return DETECT_OPS_PER_GLOBAL_INDEX * sum(d.n for d in layout.dims)


def redistribute(
    ctx: Context,
    src: GridLayout,
    dst: GridLayout,
    local_block: np.ndarray,
    phase: str | None = None,
    schedule: str = "linear",
    charge_detection: bool = True,
) -> Generator[Any, Any, np.ndarray]:
    """Move this rank's block from layout ``src`` to layout ``dst``.

    Charges send *and* receive detection (the "two phases of communication
    detection" the paper attributes to whole-array redistribution, each a
    global-extent schedule construction), then performs one many-to-many
    exchange of the raw element values (no indices travel — both sides
    derive the per-pair element order from the layouts; boolean blocks are
    bit-packed).  Returns the new local block under ``dst``.

    ``charge_detection=False`` lets a caller that already built the
    schedule (e.g. redistributing a second conformable array with the same
    pair of layouts) skip the schedule-construction charge — the per-
    element address arithmetic is still charged.
    """
    if phase is not None:
        ctx.phase(phase)
    local_block = np.asarray(local_block)
    if local_block.shape != src.local_shape:
        raise ValueError(
            f"rank {ctx.rank}: block shape {local_block.shape} != {src.local_shape}"
        )

    L_src = int(np.prod(src.local_shape))
    L_dst = int(np.prod(dst.local_shape))

    # Phase 1: send detection.  Phase 2: receive detection.
    if charge_detection:
        ctx.work(detection_phase_ops(src))
        ctx.work(detection_phase_ops(dst))
    sends = detect_sends(src, dst, ctx.rank)
    recvs = detect_recvs(src, dst, ctx.rank)

    is_bool = local_block.dtype == np.bool_
    flat = local_block.ravel()
    outgoing = {
        dest: flat[src_idx].copy() for dest, (src_idx, _dst_idx) in sends.items()
    }
    if is_bool:
        words = {d: -(-int(v.size) // BOOL_PACK) for d, v in outgoing.items()}
    else:
        words = {dest: int(v.size) for dest, v in outgoing.items()}
    ctx.work(L_src * ADDR_OPS_PER_ELEMENT)
    received = yield from exchange(ctx, outgoing, words=words, schedule=schedule)

    out = np.empty(L_dst, dtype=local_block.dtype)
    for source, values in received.items():
        positions = recvs.get(source)
        if positions is None or positions.size != np.asarray(values).size:
            raise RuntimeError(
                f"rank {ctx.rank}: redistribution mismatch from source {source}"
            )
        out[positions] = values
    # Placement: address arithmetic plus one write per received element.
    ctx.work(L_dst * ADDR_OPS_PER_ELEMENT)
    return out.reshape(dst.local_shape)
