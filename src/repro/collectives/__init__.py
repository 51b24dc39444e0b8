"""Collective communication built on the simulated machine.

Two families live here:

* :mod:`repro.collectives.basics` — software collectives (broadcast,
  gather, reduce, all-reduce, all-gather, all-to-all) implemented as trees
  and permutations over point-to-point messages, so their costs *emerge*
  from the ``tau``/``mu`` model rather than being asserted.
* :mod:`repro.collectives.prefix` — the paper's **vector
  prefix-reduction-sum** (PRS) primitive in three variants: the *direct*
  algorithm (``O(tau log P + mu M log P)``), the *split* algorithm
  (``O(tau P + mu M)``; the paper's split variant is ``O(tau log P + mu
  M)`` on a hypercube — see the module docstring for the deviation note),
  and the CM-5 *control network* (``O(M)`` per primitive, footnote 2 of
  the paper), plus the paper's selection heuristic.

All collectives are generator functions used with ``yield from`` inside an
SPMD program, and all accept a ``group`` (sorted tuple of ranks) so they
can run along one dimension of a processor grid.
"""

from .basics import (
    allgather,
    allreduce,
    alltoall,
    bcast,
    gather,
    reduce,
)
from .pipeline import optimal_chunk_words, prs_pipeline
from .prefix import (
    PRS_ALGORITHMS,
    PRSResult,
    choose_prs_algorithm,
    estimate_prs_seconds,
    prefix_reduction_sum,
    prs_ctrl,
    prs_direct,
    prs_split,
)

__all__ = [
    "PRS_ALGORITHMS",
    "PRSResult",
    "allgather",
    "allreduce",
    "alltoall",
    "bcast",
    "choose_prs_algorithm",
    "estimate_prs_seconds",
    "gather",
    "optimal_chunk_words",
    "prefix_reduction_sum",
    "prs_ctrl",
    "prs_direct",
    "prs_pipeline",
    "prs_split",
    "reduce",
]
