"""The simulator backend: deterministic, cost-model-clocked execution.

:class:`SimBackend` is a thin adapter: it constructs the cooperative
:class:`~repro.machine.engine.Machine` exactly as the host API always has
and runs the program gang in-process.  Results and statistics are
bit-for-bit identical to calling :meth:`Machine.run` directly — the
backend seam adds no behaviour, only the common :class:`Backend` shape
shared with the real-process backends.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from ..machine.engine import Machine
from ..machine.spec import CM5
from ..machine.stats import RunResult
from .base import Backend

__all__ = ["SimBackend"]


class SimBackend(Backend):
    """Run SPMD programs on the simulated coarse-grained machine.

    All engine features are available: watchdog budgets, tracing and
    metrics.  Times are in the spec's **simulated** seconds.
    """

    name = "sim"
    time_domain = "simulated"

    def run_spmd(
        self,
        program: Callable,
        nprocs: int,
        *,
        make_rank_args: Callable[[int, Mapping[str, Any]], tuple] | None = None,
        rank_args: Sequence[tuple] | None = None,
        shared: Mapping[str, Any] | None = None,
        spec=None,
        tracer=None,
        metrics=None,
        step_budget: int | None = None,
        time_budget: float | None = None,
        profile=None,
    ) -> RunResult:
        if make_rank_args is not None and rank_args is not None:
            raise ValueError("pass make_rank_args or rank_args, not both")
        own_tracer = tracer
        t_host0 = 0.0
        if profile is not None:
            from time import perf_counter

            t_host0 = perf_counter()
            if own_tracer is None:
                # The profile needs the event stream; a tracer observes
                # without touching the simulated clocks, so results stay
                # bit-identical with profiling on.
                from ..machine.trace import Tracer

                own_tracer = Tracer()
        machine = Machine(
            nprocs,
            spec if spec is not None else CM5,
            tracer=own_tracer,
            metrics=metrics,
            step_budget=step_budget,
            time_budget=time_budget,
        )
        if make_rank_args is not None:
            # In-process the "shared" arrays are just the host's arrays;
            # each rank's argument builder slices its own block lazily
            # (GridLayout.local_block views — no materialization).
            shared = dict(shared or {})
            rank_args = [make_rank_args(r, shared) for r in range(nprocs)]
        run = machine.run(program, rank_args=rank_args)
        run.time_domain = self.time_domain
        if profile is not None:
            from time import perf_counter

            from ..obs.runtime import build_sim_profile

            profile.profile = build_sim_profile(
                run, own_tracer, perf_counter() - t_host0, nprocs
            )
        return run
