"""The COUNT transformational intrinsic.

``COUNT(MASK)`` — the number of true elements — is PACK's little sibling:
it needs only the *reduction* half of the ranking stage (the paper's
``Size`` falls out of intermediate step d-1).  A runtime library gets it
almost for free given the PACK machinery; it is also exactly what an HPF
compiler calls to size PACK's result before allocating it.

The implementation mirrors the ranking stage's structure but carries a
single scalar per processor: local scan (``seq`` per element), then one
scalar all-reduce.  Cost ``O(delta L + tau log P)`` — no per-tile arrays
at all, so unlike ranking it is distribution-insensitive.
"""

from __future__ import annotations

from typing import Any, Generator

import numpy as np

from ..collectives import basics
from ..hpf.grid import GridLayout
from ..machine.context import Context
from ..runtime.primitives import allreduce

__all__ = ["count_program", "count"]


def count_program(
    ctx: Context,
    local_mask: np.ndarray,
    grid: GridLayout,
    phase_prefix: str = "count",
) -> Generator[Any, Any, int]:
    """SPMD COUNT on one rank; returns the global true count everywhere."""
    local_mask = np.asarray(local_mask, dtype=bool)
    if local_mask.shape != grid.local_shape:
        raise ValueError(
            f"rank {ctx.rank}: mask block shape {local_mask.shape} != "
            f"{grid.local_shape}"
        )
    ctx.phase(f"{phase_prefix}.scan")
    local = int(np.count_nonzero(local_mask))
    ctx.work(ctx.spec.local.seq * local_mask.size)

    ctx.phase(f"{phase_prefix}.reduce")
    if ctx.size == 1:
        return local
    if ctx.spec.has_control_network:
        total = yield from allreduce(ctx, local)
    else:
        total = yield from basics.allreduce(ctx, local, words=1)
    return int(total)


def count(
    mask: np.ndarray,
    grid,
    block=None,
    spec=None,
    validate: bool = True,
) -> int:
    """Host-level COUNT: distribute ``mask`` and count its trues in
    parallel on the simulated machine.  See :func:`repro.core.api.pack`
    for the layout parameters."""
    from ..machine.engine import Machine
    from ..machine.spec import CM5

    mask = np.asarray(mask, dtype=bool)
    if isinstance(grid, int):
        grid = (grid,)
    layout = GridLayout.create(mask.shape, grid, block)
    blocks = layout.scatter(mask)
    machine = Machine(layout.nprocs, spec if spec is not None else CM5)
    run = machine.run(
        count_program, rank_args=[(b, layout) for b in blocks]
    )
    results = set(run.results)
    if len(results) != 1:
        raise AssertionError(f"COUNT disagreement across ranks: {results}")
    total = results.pop()
    if validate and total != int(np.count_nonzero(mask)):
        raise AssertionError(
            f"parallel COUNT {total} != oracle {np.count_nonzero(mask)}"
        )
    return total
