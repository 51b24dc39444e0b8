"""End-to-end PACK time prediction (local + PRS + many-to-many).

Section 6.4 models only local computation.  This module extends the model
to the two communication stages so a compiler runtime can predict the
*total* PACK cost of a candidate distribution before executing it:

* **PRS** — per ranking dimension ``i``, one prefix-reduction-sum over the
  dimension's processor group on a vector of ``(prod_{k>i} L_k) * T_i``
  entries; algorithm resolution mirrors
  :func:`repro.collectives.prefix.choose_prs_algorithm` and the cost uses
  its closed-form estimates.
* **many-to-many** — the linear permutation schedule's elapsed time is
  bounded by the busiest processor: its sends plus the start-ups of the
  rounds it participates in, ``sum_d (tau + mu * w_d)`` over its non-empty
  destinations, plus the count-detection collective.

Predictions are *estimates* (the simulator resolves waiting and overlap
exactly; the estimate ignores idle time), so the test suite asserts
agreement within a factor rather than to the digit — unlike the local
model in :mod:`repro.analysis.model`, which is exact by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..collectives.prefix import estimate_prs_seconds
from ..core.schemes import Scheme
from ..hpf.grid import GridLayout
from ..hpf.vector import VectorLayout
from ..machine.spec import MachineSpec
from ..serial.reference import mask_ranks
from .model import predict_pack_local_seconds

__all__ = ["PackPrediction", "predict_pack_seconds", "predict_prs_seconds"]


@dataclass
class PackPrediction:
    """Predicted PACK cost decomposition, in seconds."""

    local: float
    prs: float
    m2m: float

    @property
    def total(self) -> float:
        return self.local + self.prs + self.m2m


def _resolve_prs(spec: MachineSpec, P: int, M: int, requested: str) -> str:
    """Mirror of choose_prs_algorithm without needing a Context."""
    if requested != "auto":
        return requested
    software = "direct" if (P <= 4 or M < P) else "split"
    if spec.has_control_network:
        if estimate_prs_seconds(spec, "ctrl", P, M) <= estimate_prs_seconds(
            spec, software, P, M
        ):
            return "ctrl"
    return software


def predict_prs_seconds(
    layout: GridLayout, spec: MachineSpec, prs: str = "auto"
) -> float:
    """Closed-form estimate of the ranking stage's PRS time."""
    d = layout.d
    total = 0.0
    for i in range(d):
        P_i = layout.dims[i].p
        if P_i <= 1:
            continue
        M = layout.dims[i].t
        for k in range(i + 1, d):
            M *= layout.dims[k].l
        algo = _resolve_prs(spec, P_i, M, prs)
        total += estimate_prs_seconds(spec, algo, P_i, M)
    return total


def predict_m2m_seconds(
    mask: np.ndarray,
    layout: GridLayout,
    scheme: Scheme,
    spec: MachineSpec,
    result_block: int | None = None,
) -> float:
    """Estimate of the redistribution exchange's elapsed time.

    Computes the exact per-(source, dest) word matrix from the mask, then
    charges the busiest rank's send time (with CMS segment headers where
    applicable) plus the count-detection step.
    """
    scheme = Scheme.parse(scheme)
    P = layout.nprocs
    size = int(np.count_nonzero(mask))
    vec = (
        VectorLayout.block(size, P)
        if result_block is None
        else VectorLayout.cyclic(size, P, w=result_block)
    )
    ranks_global = mask_ranks(mask)
    mask_blocks = layout.scatter(np.asarray(mask, dtype=bool))
    rank_blocks = layout.scatter(ranks_global)
    w0 = layout.dims[0].w

    busiest = 0.0
    for r in range(P):
        flat = mask_blocks[r].ravel()
        positions = np.flatnonzero(flat)
        t = 0.0
        if positions.size:
            elem_ranks = rank_blocks[r].ravel()[positions]
            dests = vec.owners(elem_ranks)
            slice_ids = positions // w0
            brk = np.ones(positions.size, dtype=bool)
            if positions.size > 1:
                brk[1:] = (np.diff(slice_ids) != 0) | (np.diff(dests) != 0)
            for dest in np.unique(dests):
                sel = dests == dest
                count = int(sel.sum())
                segs = int(brk[sel].sum())
                if scheme.uses_segments:
                    words = count + 2 * segs
                else:
                    words = 2 * count
                if dest != r:
                    t += spec.message_time(words)
        busiest = max(busiest, t)
    # Count detection: one control operation or a linear count round.
    if spec.has_control_network:
        busiest += spec.ctrl_time(P)
    else:
        busiest += (P - 1) * spec.message_time(1)
    return busiest


def predict_pack_seconds(
    mask: np.ndarray,
    layout: GridLayout,
    scheme: Scheme | str,
    spec: MachineSpec,
    prs: str = "auto",
    early_exit_scan: bool = True,
    result_block: int | None = None,
) -> PackPrediction:
    """Predict the full PACK cost decomposition for a candidate layout."""
    scheme = Scheme.parse(scheme)
    return PackPrediction(
        local=predict_pack_local_seconds(
            mask, layout, scheme, spec,
            early_exit_scan=early_exit_scan, result_block=result_block,
        ),
        prs=predict_prs_seconds(layout, spec, prs),
        m2m=predict_m2m_seconds(mask, layout, scheme, spec, result_block),
    )
