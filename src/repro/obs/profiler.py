"""Phase profiling: structured reports of one simulated run.

:class:`RunReport` is the stable, serializable summary the host-level API
returns — per-phase wall times, the rank-to-rank traffic matrix, message
and collective counts, and an optional metrics snapshot — so callers can
do cost accounting (the paper's Tables 1–2 / Figures 3–5 style) without
reaching into simulator internals.

:class:`PhaseProfiler` bundles the two observers (a
:class:`~repro.machine.trace.Tracer` and a
:class:`~repro.obs.registry.MetricsRegistry`) behind one context manager::

    with PhaseProfiler() as prof:
        result = repro.pack(a, m, grid=4, profiler=prof)
    prof.report.to_json("pack.report.json")
    prof.write_chrome_trace("pack.trace.json")

The host functions in :mod:`repro.core.api` accept ``profiler=`` and call
:meth:`PhaseProfiler.finish` with the run; standalone machine users can do
the same with their own :class:`~repro.machine.engine.Machine`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

__all__ = ["RunReport", "PhaseProfiler", "build_run_report"]


@dataclass
class RunReport:
    """Structured outcome of one observed run.  All times in seconds.

    Attributes
    ----------
    op:
        what ran (``"pack"``, ``"unpack"``, ``"ranking"``, ``"run"``).
    nprocs / spec:
        machine shape and cost profile name.
    time_domain:
        ``"simulated"`` (cost-model seconds, the simulator backend) or
        ``"wall"`` (real host seconds, the multiprocessing backend);
        copied from the run so reports from different backends are never
        silently comparable.
    elapsed:
        elapsed time in the report's time domain (max final rank clock).
    phase_times:
        per-phase wall time — max over ranks of the per-rank total, the
        same quantity as ``RunResult.phase_time`` per leaf phase.
    total_messages / total_words / total_ops / collective_ops:
        run-wide traffic and work sums.
    load_imbalance:
        max/mean of per-rank local op counts.
    per_rank:
        one ``ProcStats.snapshot()`` dict per rank.
    traffic_matrix:
        ``nprocs x nprocs`` point-to-point word counts (rows = senders),
        from the tracer; ``None`` when the run was not traced.
    metrics:
        ``MetricsRegistry.snapshot()`` dict, or ``None``.
    plan:
        plan-cache outcome of the call (``{"cache": "hit"|"miss",
        "compile_ms", "fingerprint", "plan_bytes"}``) when the host call
        used ``plan_cache=``; ``None`` otherwise.  On a hit,
        ``compile_ms`` is 0.0 — the compile prefix was replayed, not
        computed — which is the profiler-visible "plan.compile ≈ 0"
        signal.
    """

    op: str
    nprocs: int
    spec: str
    elapsed: float
    phase_times: dict[str, float]
    total_messages: int
    total_words: int
    total_ops: float
    collective_ops: int
    load_imbalance: float
    per_rank: list[dict] = field(repr=False, default_factory=list)
    traffic_matrix: list[list[int]] | None = field(repr=False, default=None)
    metrics: dict[str, Any] | None = field(repr=False, default=None)
    time_domain: str = "simulated"
    plan: dict[str, Any] | None = field(repr=False, default=None)

    # ------------------------------------------------------------- accessors
    def phase_time(self, prefix: str) -> float:
        """Aggregate wall time of every phase at or below ``prefix``."""
        total = 0.0
        for name, t in self.phase_times.items():
            if name == prefix or name.startswith(prefix + "."):
                total += t
        return total

    @property
    def elapsed_ms(self) -> float:
        return self.elapsed * 1e3

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> dict[str, Any]:
        return {
            "op": self.op,
            "nprocs": self.nprocs,
            "spec": self.spec,
            "time_domain": self.time_domain,
            "elapsed_seconds": self.elapsed,
            "phase_times_seconds": dict(self.phase_times),
            "total_messages": self.total_messages,
            "total_words": self.total_words,
            "total_ops": self.total_ops,
            "collective_ops": self.collective_ops,
            "load_imbalance": self.load_imbalance,
            "per_rank": list(self.per_rank),
            "traffic_matrix_words": self.traffic_matrix,
            "metrics": self.metrics,
            "plan": self.plan,
        }

    def to_json(self, path=None, indent: int = 2) -> str:
        text = json.dumps(self.to_dict(), indent=indent, sort_keys=True)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text

    def summary(self) -> str:
        lines = [
            f"{self.op}: ranks={self.nprocs} spec={self.spec} "
            f"time={self.time_domain} "
            f"elapsed={self.elapsed * 1e3:.3f} ms "
            f"msgs={self.total_messages} words={self.total_words} "
            f"collectives={self.collective_ops} "
            f"imbalance={self.load_imbalance:.2f}",
        ]
        if self.plan is not None:
            compile_ms = self.plan.get("compile_ms")
            lines.append(
                f"  plan cache={self.plan.get('cache')}"
                + (f" compile={compile_ms:.3f} ms" if compile_ms is not None
                   else "")
            )
        for name in sorted(self.phase_times):
            lines.append(f"  {name:<40s} {self.phase_times[name] * 1e3:10.3f} ms")
        return "\n".join(lines)


def build_run_report(
    run,
    tracer=None,
    metrics=None,
    op: str = "run",
    spec: str = "?",
    plan: dict | None = None,
) -> RunReport:
    """Assemble a :class:`RunReport` from a finished run and its observers.

    ``run`` is a :class:`~repro.machine.stats.RunResult`; ``tracer`` and
    ``metrics`` are optional — absent observers simply leave their report
    fields ``None``.
    """
    traffic = None
    if tracer is not None:
        n = run.nprocs
        traffic = [[0] * n for _ in range(n)]
        for src, dst, words in tracer.message_pairs():
            traffic[src][dst] += words
    return RunReport(
        op=op,
        nprocs=run.nprocs,
        spec=spec,
        elapsed=run.elapsed,
        phase_times=run.phase_breakdown(),
        total_messages=run.total_messages,
        total_words=run.total_words,
        total_ops=run.total_ops,
        collective_ops=sum(s.ctrl_ops for s in run.stats),
        load_imbalance=run.load_imbalance(),
        per_rank=[s.snapshot() for s in run.stats],
        traffic_matrix=traffic,
        metrics=metrics.snapshot() if metrics is not None else None,
        time_domain=getattr(run, "time_domain", "simulated"),
        plan=plan,
    )


class PhaseProfiler:
    """Bundles a tracer and a metrics registry for one (or more) runs.

    Pass to :func:`repro.pack` / :func:`repro.unpack` /
    :func:`repro.ranking` via ``profiler=``, or attach the parts to a
    :class:`~repro.machine.engine.Machine` yourself (``tracer=prof.tracer,
    metrics=prof.metrics``) and call :meth:`finish` with the run.

    Works as a context manager purely for scoping readability; ``__exit__``
    does not discard anything, so the report remains available after the
    block.
    """

    def __init__(self, trace: bool = True, metrics: bool = True,
                 capture_phases: bool = True):
        if trace:
            from ..machine.trace import Tracer

            self.tracer = Tracer(capture_phases=capture_phases)
        else:
            self.tracer = None
        if metrics:
            from .registry import MetricsRegistry

            self.metrics = MetricsRegistry()
        else:
            self.metrics = None
        self.run = None
        self.report: RunReport | None = None

    # -------------------------------------------------------------- lifecycle
    def __enter__(self) -> "PhaseProfiler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def finish(
        self, run, op: str = "run", spec: str = "?", plan: dict | None = None
    ) -> RunReport:
        """Build (and store) the report for a completed run."""
        self.run = run
        self.report = build_run_report(
            run, tracer=self.tracer, metrics=self.metrics, op=op, spec=spec,
            plan=plan,
        )
        return self.report

    # -------------------------------------------------------------- exports
    def write_chrome_trace(self, path, metadata: dict | None = None) -> int:
        """Export the traced run to ``path`` (Chrome trace JSON)."""
        if self.tracer is None:
            raise ValueError("profiler was created with trace=False")
        if self.run is None:
            raise ValueError("no finished run; call finish() first")
        from .chrome_trace import write_chrome_trace

        meta = {"op": self.report.op if self.report else "run"}
        meta.update(metadata or {})
        return write_chrome_trace(path, self.tracer, run=self.run, metadata=meta)

    def write_metrics(self, path) -> None:
        """Export the metrics snapshot to ``path`` (.json or .csv)."""
        if self.metrics is None:
            raise ValueError("profiler was created with metrics=False")
        from .exporters import write_metrics

        write_metrics(path, self.metrics)

    def __repr__(self) -> str:
        parts = []
        if self.tracer is not None:
            parts.append(f"{len(self.tracer)} events")
        if self.metrics is not None:
            parts.append(f"{len(self.metrics)} metrics")
        state = "finished" if self.report is not None else "pending"
        return f"PhaseProfiler({', '.join(parts)}; {state})"
