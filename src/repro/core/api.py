"""Host-level convenience API.

These functions hide the SPMD machinery: they build the layout, hand the
global arrays to an execution backend (each rank slices out only the
blocks it owns), run the program on every rank, gather the result, and
(optionally) validate it against the serial numpy oracle.  They return
rich result objects carrying per-phase times — simulated seconds under
the default ``backend="sim"``, real wall seconds under ``backend="mp"``
or ``backend="supervised"`` (a persistent, fault-tolerant mp gang; see
:mod:`repro.runtime`).

For writing custom SPMD programs against the library, use the lower-level
generators in :mod:`repro.core.pack` / :mod:`repro.core.unpack` /
:mod:`repro.core.ranking` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable, Sequence

import numpy as np

from ..hpf.grid import GridLayout
from ..machine.spec import CM5, MachineSpec
from ..machine.stats import RunResult, same_time_domain
from ..obs.profiler import PhaseProfiler, RunReport, build_run_report
from ..runtime.base import get_backend
from ..serial.reference import mask_ranks, pack_reference, unpack_reference
from .pack import pack_program, result_vector_layout
from .plan import (
    ChargeRecorder,
    Plan,
    RankingRankPlan,
    plan_key,
    replay_charges,
)
from .plan_cache import resolve_plan_cache
from .ranking import ranking_phase_names, ranking_program
from .redistribution import pack_red1_program, pack_red2_program
from .schemes import PackConfig, Scheme
from .unpack import input_vector_layout, unpack_program

__all__ = [
    "PackResult",
    "UnpackResult",
    "RankingResult",
    "pack",
    "unpack",
    "ranking",
    "aggregate_time",
]

#: Phase-name fragments counted as communication rather than local work.
_COMM_FRAGMENTS = (".prs.", ".comm", ".red.comm", ".red.array", ".red.mask")


def aggregate_time(
    run: RunResult | Iterable[RunResult], kind: str = "total"
) -> float:
    """Paper-style time aggregates over a run (or runs), in seconds.

    ``kind``:

    * ``"total"`` — max final clock (the measured wall time);
    * ``"local"`` — max over ranks of local-computation phase time: every
      phase except the prefix-reduction-sum and the many-to-many /
      redistribution communication (matches the paper's "local
      computation" measurement, which explicitly excludes PRS);
    * ``"prs"`` — the prefix-reduction-sum phases;
    * ``"m2m"`` — the many-to-many personalized communication phases.

    A sequence of runs is summed — but only after
    :func:`~repro.machine.stats.same_time_domain` confirms they share one
    time domain.  Adding a simulated CM-5 clock to a wall clock measured
    by the multiprocessing backend raises
    :class:`~repro.machine.errors.TimeDomainError` instead of producing a
    meaningless number.
    """
    if not isinstance(run, RunResult):
        runs = tuple(run)
        same_time_domain(runs)
        return sum(aggregate_time(r, kind) for r in runs)
    if kind == "total":
        return run.elapsed

    def is_comm(name: str) -> bool:
        return any(f in name for f in _COMM_FRAGMENTS)

    def is_prs(name: str) -> bool:
        return ".prs." in name

    def is_m2m(name: str) -> bool:
        return name.endswith(".comm") or ".comm." in name or ".red.comm" in name

    best = 0.0
    for s in run.stats:
        total = 0.0
        for name, t in s.phase_times.items():
            if kind == "local" and not is_comm(name):
                total += t
            elif kind == "prs" and is_prs(name):
                total += t
            elif kind == "m2m" and is_m2m(name):
                total += t
        best = max(best, total)
    return best


@dataclass
class _TimedResult:
    """Shared timing and reporting accessors for result objects.

    ``tracer`` / ``metrics`` hold the observers the run was instrumented
    with (``None`` for plain runs); :meth:`report` always works — an
    uninstrumented run simply yields a report without traffic matrix or
    metrics snapshot.
    """

    run: RunResult = field(repr=False)
    tracer: object = field(default=None, repr=False)
    metrics: object = field(default=None, repr=False)
    _op: str = field(default="run", repr=False)
    _spec_name: str = field(default="?", repr=False)
    #: Plan-cache outcome of this call (``{"cache": "hit"|"miss",
    #: "compile_ms", "fingerprint", "plan_bytes"}``) when a ``plan_cache``
    #: was requested; ``None`` for plain calls.
    plan_info: dict | None = field(default=None, repr=False)

    def report(self) -> RunReport:
        """Structured :class:`~repro.obs.profiler.RunReport` of this run —
        per-phase wall times, traffic matrix (when traced), collective
        counts and the metrics snapshot — without touching simulator
        internals."""
        return build_run_report(
            self.run,
            tracer=self.tracer,
            metrics=self.metrics,
            op=self._op,
            spec=self._spec_name,
            plan=self.plan_info,
        )

    @property
    def time_domain(self) -> str:
        """``"simulated"`` or ``"wall"``, from the backend that ran this."""
        return self.run.time_domain

    @property
    def total_ms(self) -> float:
        return aggregate_time(self.run, "total") * 1e3

    @property
    def local_ms(self) -> float:
        return aggregate_time(self.run, "local") * 1e3

    @property
    def prs_ms(self) -> float:
        return aggregate_time(self.run, "prs") * 1e3

    @property
    def m2m_ms(self) -> float:
        return aggregate_time(self.run, "m2m") * 1e3

    @property
    def times(self) -> dict[str, float]:
        """Per-phase wall times in milliseconds."""
        return {k: v * 1e3 for k, v in self.run.phase_breakdown().items()}


@dataclass
class PackResult(_TimedResult):
    """Outcome of a host-level :func:`pack` call."""

    vector: np.ndarray = field(default=None)
    size: int = 0
    scheme: Scheme = Scheme.CMS
    layout: GridLayout = field(default=None, repr=False)
    total_words: int = 0

    def __str__(self) -> str:
        return (
            f"PackResult(size={self.size}, scheme={self.scheme.value}, "
            f"total={self.total_ms:.3f} ms, local={self.local_ms:.3f} ms)"
        )


@dataclass
class UnpackResult(_TimedResult):
    """Outcome of a host-level :func:`unpack` call."""

    array: np.ndarray = field(default=None)
    size: int = 0
    scheme: Scheme = Scheme.CSS
    layout: GridLayout = field(default=None, repr=False)

    def __str__(self) -> str:
        return (
            f"UnpackResult(size={self.size}, scheme={self.scheme.value}, "
            f"total={self.total_ms:.3f} ms, local={self.local_ms:.3f} ms)"
        )


@dataclass
class RankingResult(_TimedResult):
    """Outcome of a host-level :func:`ranking` call.

    ``ranks`` holds the global rank of every mask-true element and -1
    elsewhere (the shape of the mask).
    """

    ranks: np.ndarray = field(default=None)
    size: int = 0
    layout: GridLayout = field(default=None, repr=False)


def _resolve_observers(profiler, tracer, metrics):
    """One instrumentation story: an explicit profiler wins, else the raw
    observers (either may be None)."""
    if profiler is not None:
        if tracer is not None or metrics is not None:
            raise ValueError("pass either profiler= or tracer=/metrics=, not both")
        return profiler.tracer, profiler.metrics
    return tracer, metrics


def _make_config(
    scheme, prs, m2m_schedule, result_block, early_exit_scan,
    compress_requests=False,
) -> PackConfig:
    return PackConfig(
        scheme=Scheme.parse(scheme),
        prs=prs,
        m2m_schedule=m2m_schedule,
        result_block=result_block,
        early_exit_scan=early_exit_scan,
        compress_requests=compress_requests,
    )


@dataclass
class _PlanState:
    """Per-call plan-cache bookkeeping shared by pack/unpack/ranking.

    ``status`` is ``None`` when no cache was requested, else ``"hit"`` /
    ``"miss"``.
    """

    cache: object = None
    key: object = None
    plan: Plan | None = None
    capture: bool = False
    status: str | None = None


def _plan_setup(
    plan_cache, op: str, layout, config, mask,
    n_result, spec_name: str, time_domain: str,
) -> _PlanState:
    """Resolve the cache and probe it for this call's key."""
    cache = resolve_plan_cache(plan_cache)
    if cache is None:
        return _PlanState()
    key = plan_key(
        op, layout, config, mask,
        n_result=n_result, spec=spec_name, time_domain=time_domain,
    )
    plan = cache.get(key)
    return _PlanState(
        cache=cache, key=key, plan=plan,
        capture=plan is None, status="hit" if plan is not None else "miss",
    )


def _plan_finish(state: _PlanState, run, nprocs: int, metrics, rank_plan_of):
    """Store a freshly captured plan and build the call's plan-info dict."""
    if state.status is None:
        return None
    if state.capture:
        plan = Plan(
            key=state.key,
            ranks=[rank_plan_of(run.results[r]) for r in range(nprocs)],
        )
        state.cache.put(state.key, plan)
        compile_ms = plan.compile_wall * 1e3
    else:
        plan = state.plan
        compile_ms = 0.0  # the prefix was replayed, not computed
    info = {
        "cache": state.status,
        "compile_ms": compile_ms,
        "fingerprint": state.key.fingerprint,
        "plan_bytes": plan.nbytes,
    }
    if metrics is not None:
        metrics.inc(f"plan_cache.{state.status}")
        metrics.observe("plan.compile_ms", compile_ms)
    return info


def pack(
    array: np.ndarray,
    mask: np.ndarray,
    grid: Sequence[int] | int,
    block=None,
    scheme="cms",
    spec: MachineSpec = CM5,
    prs: str = "auto",
    m2m_schedule: str = "linear",
    result_block: int | None = None,
    early_exit_scan: bool = True,
    redistribute: str | None = None,
    vector: np.ndarray | None = None,
    pad: bool = False,
    validate: bool = True,
    profiler: PhaseProfiler | None = None,
    profile=None,
    tracer=None,
    metrics=None,
    step_budget: int | None = None,
    time_budget: float | None = None,
    backend="sim",
    plan_cache=None,
) -> PackResult:
    """Parallel PACK of a global numpy array under a simulated machine.

    Parameters
    ----------
    array, mask:
        conformable global numpy arrays; the mask is interpreted as bool.
    vector:
        Fortran 90's optional ``VECTOR`` argument: when given, the result
        has ``vector.size`` elements (>= the number of trues) and the
        positions past the packed data take ``vector``'s values.
    pad:
        lift the paper's divisibility assumption: extents not divisible by
        ``P*W`` are padded with mask-false elements (which PACK never
        selects, so the result is unchanged).  See
        :mod:`repro.core.padding`.
    grid:
        processor grid in numpy axis order (an int for 1-D arrays).
    block:
        per-dimension block sizes (numpy order), an int/str applied to all
        dimensions, or ``None`` for BLOCK.
    scheme:
        ``"sss"`` / ``"css"`` / ``"cms"``.
    redistribute:
        ``None`` (direct pack), ``"selected"`` (Red.1 pre-pass) or
        ``"whole"`` (Red.2 pre-pass) — Section 6.3.
    validate:
        check the result against the serial oracle (always do this in
        tests; turn off in benchmarks measuring simulated time only).
    profile:
        optional :class:`~repro.obs.runtime.RuntimeProfiler`: after the
        call it holds a cross-rank :class:`~repro.obs.runtime.RunProfile`
        — per-rank trace lanes, a P×P communication matrix and a
        phase-attribution table in the backend's own time domain (host
        wall phases like fork/pickle/queue-wait under ``"mp"``).  See
        ``repro run`` and docs/runtime.md.
    profiler / tracer / metrics:
        optional observability: a :class:`~repro.obs.PhaseProfiler` (its
        report is filled in and the result's :meth:`~_TimedResult.report`
        includes trace-derived data), or a raw
        :class:`~repro.machine.trace.Tracer` /
        :class:`~repro.obs.MetricsRegistry` pair.  All default off; plain
        calls pay nothing.
    step_budget / time_budget:
        optional progress-watchdog bounds forwarded to
        :class:`~repro.machine.engine.Machine`; a run exceeding them
        raises :class:`~repro.machine.errors.WatchdogError`.
    backend:
        execution backend: ``"sim"`` (default — the deterministic cost
        simulator, times in simulated seconds), ``"mp"`` (one OS
        process per rank on real cores, times in wall seconds),
        ``"supervised"`` (a persistent
        :class:`~repro.runtime.GangSupervisor` gang, forked once and
        reused, with heartbeat monitoring and retry-based recovery from
        rank death), or a :class:`~repro.runtime.Backend` instance.
        The simulator-only watchdog budgets raise
        :class:`~repro.runtime.BackendError` under the process backends.
    plan_cache:
        opt-in plan/execute split (:mod:`repro.core.plan`): ``True`` /
        ``"on"`` uses the process-default
        :class:`~repro.core.plan_cache.PlanCache`, or pass an instance.
        The mask-dependent compile prefix (ranking, send-vector
        derivation, rescan) is compiled once per (geometry, scheme, mask
        fingerprint, machine spec, time domain) and replayed on repeat
        calls — results and simulated times stay bit-identical; under the
        wall-clock backends the recompute is genuinely skipped.
        ``redistribute`` runs compile their pre-pass bookkeeping into the
        plan too (keyed as ``pack_red1`` / ``pack_red2``).

    Returns a :class:`PackResult` whose ``vector`` matches Fortran 90
    ``PACK(array, mask)`` semantics exactly.
    """
    array = np.asarray(array)
    mask = np.asarray(mask, dtype=bool)
    if isinstance(grid, int):
        grid = (grid,)
    original_array, original_mask = array, mask
    if pad:
        from .padding import pad_array, pad_mask, padded_shape

        new_shape, block = padded_shape(array.shape, grid, block)
        array = pad_array(array, new_shape)
        mask = pad_mask(mask, new_shape)
    layout = GridLayout.create(array.shape, grid, block)
    config = _make_config(
        scheme, prs, m2m_schedule, result_block, early_exit_scan,
    )
    tracer, metrics = _resolve_observers(profiler, tracer, metrics)
    exec_backend = get_backend(backend)

    n_result = None
    pad_layout = None
    if vector is not None:
        vector = np.asarray(vector)
        if vector.ndim != 1:
            raise ValueError(
                f"PACK's VECTOR must be rank 1, got rank {vector.ndim}"
            )
        trues = int(np.count_nonzero(mask))
        if vector.size < trues:
            raise ValueError(
                f"PACK's VECTOR has {vector.size} elements but the mask "
                f"selects {trues}"
            )
        n_result = int(vector.size)
        pad_layout = result_vector_layout(n_result, layout.nprocs, config)

    if redistribute is None:
        program = pack_program
    elif redistribute == "selected":
        program = pack_red1_program
    elif redistribute == "whole":
        program = pack_red2_program
    else:
        raise ValueError(
            f"redistribute must be None, 'selected' or 'whole', got {redistribute!r}"
        )

    plan_op = {None: "pack", "selected": "pack_red1",
               "whole": "pack_red2"}[redistribute]
    plan_state = _plan_setup(
        plan_cache,
        op=plan_op, layout=layout, config=config, mask=mask,
        n_result=n_result, spec_name=spec.name,
        time_domain=exec_backend.time_domain,
    )
    rank_plans = plan_state.plan.ranks if plan_state.plan is not None else None
    # Plain local, not plan_state.capture: the rank-args closure is
    # shipped to supervised-gang workers, and _PlanState drags the whole
    # PlanCache (and its lock) into the closure cells.
    capture_plan = plan_state.capture

    # Each rank extracts only the blocks it owns from the shared global
    # arrays (views in-process; shared-memory slices under "mp") — the
    # host never materializes a per-rank copy of anything.  On a plan hit
    # the mask is not shipped at all: the plan already encodes it.  The
    # exception is Red.2, whose pre-pass redistributes the mask for real
    # even on a hit (the traffic is part of the measured algorithm).
    ship_mask = rank_plans is None or redistribute == "whole"
    shared = {"array": array}
    if ship_mask:
        shared["mask"] = mask
    if vector is not None:
        shared["pad_vector"] = vector

    def _rank_args(r, sh):
        pad_block = (
            pad_layout.local_block(sh["pad_vector"], r)
            if pad_layout is not None
            else None
        )
        base = (
            layout.local_block(sh["array"], r, copy=False),
            layout.local_block(sh["mask"], r, copy=False)
            if ship_mask else None,
            layout, config, pad_block, n_result,
        )
        # The direct program takes (ranking_result, phase_prefix) before
        # the plan hooks; the redistribution programs go straight to them.
        if rank_plans is not None:
            tail = (rank_plans[r], False)
        elif capture_plan:
            tail = (None, True)
        else:
            return base
        if redistribute is None:
            return base + (None, "pack") + tail
        return base + tail

    run = exec_backend.run_spmd(
        program,
        layout.nprocs,
        make_rank_args=_rank_args,
        shared=shared,
        spec=spec,
        tracer=tracer,
        metrics=metrics,
        step_budget=step_budget,
        time_budget=time_budget,
        profile=profile,
    )
    size = run.results[0].size
    vec_layout = result_vector_layout(
        n_result if n_result is not None else size, layout.nprocs, config
    )
    vector = vec_layout.gather(
        [run.results[r].vector_block for r in range(layout.nprocs)],
        dtype=array.dtype,
    )
    if validate:
        expected = pack_reference(original_array, original_mask, vector)
        if vector.shape != expected.shape or not np.array_equal(vector, expected):
            raise AssertionError(
                f"parallel PACK mismatch vs serial oracle "
                f"(scheme={config.scheme.value}, layout={layout.describe()})"
            )
    plan_info = _plan_finish(
        plan_state, run, layout.nprocs, metrics, lambda res: res.rank_plan
    )
    if profiler is not None:
        profiler.finish(run, op="pack", spec=spec.name, plan=plan_info)
    if profile is not None and profile.profile is not None:
        profile.finish(op="pack", spec=spec.name)
    return PackResult(
        run=run,
        vector=vector,
        size=size,
        scheme=config.scheme,
        layout=layout,
        total_words=run.total_words,
        tracer=tracer,
        metrics=metrics,
        _op="pack",
        _spec_name=spec.name,
        plan_info=plan_info,
    )


def unpack(
    vector: np.ndarray,
    mask: np.ndarray,
    field_array: np.ndarray,
    grid: Sequence[int] | int,
    block=None,
    scheme="css",
    spec: MachineSpec = CM5,
    prs: str = "auto",
    m2m_schedule: str = "linear",
    result_block: int | None = None,
    early_exit_scan: bool = True,
    compress_requests: bool = False,
    pad: bool = False,
    validate: bool = True,
    profiler: PhaseProfiler | None = None,
    profile=None,
    tracer=None,
    metrics=None,
    step_budget: int | None = None,
    time_budget: float | None = None,
    backend="sim",
    plan_cache=None,
) -> UnpackResult:
    """Parallel UNPACK: scatter ``vector`` into the trues of ``mask``, with
    ``field_array`` filling the falses.  See :func:`pack` for parameters
    (including the watchdog budgets, and
    ``plan_cache`` — an UNPACK plan additionally records each rank's
    incoming request tables, so a hit skips the whole phase-A request
    exchange); ``scheme`` must be ``"sss"`` or ``"css"``.  ``field_array``
    may be a scalar (Fortran 90 allows a scalar FIELD).
    ``compress_requests`` run-length-encodes the rank requests (CSS only;
    a library extension — see :class:`repro.core.schemes.PackConfig`)."""
    vector = np.asarray(vector)
    mask = np.asarray(mask, dtype=bool)
    field_array = np.asarray(field_array)
    if vector.ndim != 1:
        raise ValueError(
            f"UNPACK input vector must be rank 1, got rank {vector.ndim}"
        )
    trues = int(np.count_nonzero(mask))
    if vector.size < trues:
        raise ValueError(
            f"UNPACK vector has {vector.size} elements but the mask selects "
            f"{trues}"
        )
    if field_array.ndim == 0:
        field_array = np.full(mask.shape, field_array[()])
    if isinstance(grid, int):
        grid = (grid,)
    original_shape = mask.shape
    original_mask, original_field = mask, field_array
    if pad:
        from .padding import pad_array, pad_mask, padded_shape

        new_shape, block = padded_shape(mask.shape, grid, block)
        mask = pad_mask(mask, new_shape)
        field_array = pad_array(field_array, new_shape)
    layout = GridLayout.create(mask.shape, grid, block)
    config = _make_config(
        scheme, prs, m2m_schedule, result_block, early_exit_scan,
        compress_requests=compress_requests,
    )

    tracer, metrics = _resolve_observers(profiler, tracer, metrics)
    exec_backend = get_backend(backend)
    vec_layout = input_vector_layout(int(vector.size), layout.nprocs, config)
    n_vector = int(vector.size)

    plan_state = _plan_setup(
        plan_cache,
        op="unpack", layout=layout, config=config, mask=mask,
        n_result=n_vector, spec_name=spec.name,
        time_domain=exec_backend.time_domain,
    )
    rank_plans = plan_state.plan.ranks if plan_state.plan is not None else None
    capture_plan = plan_state.capture  # plain local: closure must pickle

    # Each rank slices only its own blocks from the shared global arrays
    # (views in-process, shared-memory slices under "mp").  On a plan hit
    # the mask stays on the host: the plan already encodes it.
    shared = {"vector": vector, "field": field_array}
    if rank_plans is None:
        shared["mask"] = mask

    def _rank_args(r, sh):
        base = (
            vec_layout.local_block(sh["vector"], r, copy=False),
            layout.local_block(sh["mask"], r, copy=False)
            if rank_plans is None else None,
            layout.local_block(sh["field"], r, copy=False),
            layout,
            n_vector,
            config,
        )
        if rank_plans is not None:
            return base + ("unpack", rank_plans[r], False)
        if capture_plan:
            return base + ("unpack", None, True)
        return base

    run = exec_backend.run_spmd(
        unpack_program,
        layout.nprocs,
        make_rank_args=_rank_args,
        shared=shared,
        spec=spec,
        tracer=tracer,
        metrics=metrics,
        step_budget=step_budget,
        time_budget=time_budget,
        profile=profile,
    )
    array = layout.gather([run.results[r].array_block for r in range(layout.nprocs)])
    if pad:
        from .padding import crop

        array = crop(array, original_shape)
    if validate:
        expected = unpack_reference(vector, original_mask, original_field)
        if not np.array_equal(array, expected):
            raise AssertionError(
                f"parallel UNPACK mismatch vs serial oracle "
                f"(scheme={config.scheme.value}, layout={layout.describe()})"
            )
    plan_info = _plan_finish(
        plan_state, run, layout.nprocs, metrics, lambda res: res.rank_plan
    )
    if profiler is not None:
        profiler.finish(run, op="unpack", spec=spec.name, plan=plan_info)
    if profile is not None and profile.profile is not None:
        profile.finish(op="unpack", spec=spec.name)
    return UnpackResult(
        run=run,
        array=array,
        size=run.results[0].size,
        scheme=config.scheme,
        layout=layout,
        tracer=tracer,
        metrics=metrics,
        _op="unpack",
        _spec_name=spec.name,
        plan_info=plan_info,
    )


def _ranking_host_program(
    ctx, block_mask, layout, scheme, prs, plan=None, capture=False
):
    """Per-rank program behind the host-level :func:`ranking`.

    Returns ``(masked element ranks, Size, captured rank plan or None)``.
    The ranking result is *entirely* mask-derived, so a plan execution is
    pure replay: restore the recorded charges, hand back the stored array.
    """
    if plan is not None:
        replay_charges(ctx, plan.charges, "ranking")
        return (plan.ranks_local, plan.size, None)
    recorder = ChargeRecorder(ctx) if capture else None
    t_compile = perf_counter() if capture else 0.0
    result = yield from ranking_program(
        ctx, block_mask, layout, scheme=scheme, prs=prs
    )
    ranks_local = result.masked_element_ranks(block_mask, layout.local_shape)
    rank_plan = None
    if capture:
        rank_plan = RankingRankPlan(
            ranks_local=ranks_local,
            size=result.size,
            charges=recorder.finish(
                ctx, ranking_phase_names(layout.d), "ranking"
            ),
            compile_wall=perf_counter() - t_compile,
        )
    return (ranks_local, result.size, rank_plan)


def ranking(
    mask: np.ndarray,
    grid: Sequence[int] | int,
    block=None,
    spec: MachineSpec = CM5,
    prs: str = "auto",
    scheme="css",
    validate: bool = True,
    profiler: PhaseProfiler | None = None,
    profile=None,
    tracer=None,
    metrics=None,
    step_budget: int | None = None,
    time_budget: float | None = None,
    pad: bool = False,
    backend="sim",
    plan_cache=None,
) -> RankingResult:
    """Run only the ranking stage and return the global rank array.

    ``pad`` lifts the ``P*W | N`` divisibility assumption exactly as in
    :func:`pack`: padding cells are mask-false, contribute nothing to the
    prefix sums, and are cropped away before the ranks are returned."""
    mask = np.asarray(mask, dtype=bool)
    if isinstance(grid, int):
        grid = (grid,)
    original_mask = mask
    original_shape = mask.shape
    if pad:
        from .padding import pad_mask, padded_shape

        new_shape, block = padded_shape(mask.shape, grid, block)
        mask = pad_mask(mask, new_shape)
    tracer, metrics = _resolve_observers(profiler, tracer, metrics)
    exec_backend = get_backend(backend)
    layout = GridLayout.create(mask.shape, grid, block)
    config_scheme = Scheme.parse(scheme)

    plan_state = _plan_setup(
        plan_cache,
        op="ranking", layout=layout,
        # Ranking has no PackConfig; key it under the knobs that exist
        # (scheme, prs) with the remaining fields at their defaults.
        config=_make_config(scheme, prs, "linear", None, True),
        mask=mask, n_result=None, spec_name=spec.name,
        time_domain=exec_backend.time_domain,
    )
    rank_plans = plan_state.plan.ranks if plan_state.plan is not None else None
    capture_plan = plan_state.capture  # plain local: closure must pickle
    shared = {} if rank_plans is not None else {"mask": mask}

    def _rank_args(r, sh):
        block_mask = (
            layout.local_block(sh["mask"], r, copy=False)
            if rank_plans is None else None
        )
        base = (block_mask, layout, config_scheme, prs)
        if rank_plans is not None:
            return base + (rank_plans[r], False)
        if capture_plan:
            return base + (None, True)
        return base

    run = exec_backend.run_spmd(
        _ranking_host_program,
        layout.nprocs,
        make_rank_args=_rank_args,
        shared=shared,
        spec=spec,
        tracer=tracer,
        metrics=metrics,
        step_budget=step_budget,
        time_budget=time_budget,
        profile=profile,
    )
    ranks = layout.gather([run.results[r][0] for r in range(layout.nprocs)])
    size = run.results[0][1]
    if pad:
        from .padding import crop

        ranks = crop(ranks, original_shape)
    if validate:
        expected = mask_ranks(original_mask)
        if not np.array_equal(ranks, expected):
            raise AssertionError("parallel ranking mismatch vs serial oracle")
        if size != int(np.count_nonzero(original_mask)):
            raise AssertionError(
                f"Size {size} != oracle {np.count_nonzero(original_mask)}")
    plan_info = _plan_finish(
        plan_state, run, layout.nprocs, metrics, lambda res: res[2]
    )
    if profiler is not None:
        profiler.finish(run, op="ranking", spec=spec.name, plan=plan_info)
    if profile is not None and profile.profile is not None:
        profile.finish(op="ranking", spec=spec.name)
    return RankingResult(
        run=run, ranks=ranks, size=size, layout=layout,
        tracer=tracer, metrics=metrics, _op="ranking", _spec_name=spec.name,
        plan_info=plan_info,
    )
