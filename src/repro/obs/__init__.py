"""Observability for the simulated machine: metrics, traces, reports.

The paper's whole argument is cost accounting — ranking vs. redistribution
time, PRS step structure, per-phase message volumes.  This package makes
those quantities first-class:

* :mod:`repro.obs.registry` — counters / gauges / fixed-bucket histograms
  (:class:`MetricsRegistry`), attachable to a
  :class:`~repro.machine.engine.Machine` alongside the tracer and
  populated by the engine's send/receive/collective/contention paths and
  the core PACK/UNPACK phase boundaries.  Zero overhead when absent.
* :mod:`repro.obs.chrome_trace` — export a traced run as Chrome
  ``trace_event`` JSON (one thread per rank, phase slices, message flow
  arrows); open in ``chrome://tracing`` or https://ui.perfetto.dev.
* :mod:`repro.obs.profiler` — :class:`PhaseProfiler` (bundles both
  observers) and :class:`RunReport` (the structured per-run summary the
  host API returns).
* :mod:`repro.obs.exporters` — flat JSON/CSV metric snapshots.
* :mod:`repro.obs.runtime` — cross-rank *runtime* profiling for the
  backend seam: :class:`RuntimeProfiler` / :class:`RunProfile` merge
  per-rank event lanes into one wall-clock-aligned Chrome trace, a P×P
  communication matrix and a phase-attribution table, in the backend's
  own time domain (``"simulated"`` vs ``"wall"`` profiles refuse to be
  compared — :class:`~repro.machine.stats.TimeDomainError`).

CLI entry point: ``python -m repro run {pack,unpack,ranking}`` reports
through :class:`RuntimeProfiler` (``--trace-out`` / ``--metrics-out`` /
``--report-out``); see ``docs/observability.md``.
"""

from ..hpf.caches import (
    clear_layout_caches,
    layout_cache_stats,
    publish_layout_cache_stats,
)
from .chrome_trace import (
    build_chrome_trace,
    trace_metadata,
    validate_chrome_trace,
    write_chrome_trace,
)
from .exporters import (
    snapshot_rows,
    write_metrics,
    write_metrics_csv,
    write_metrics_json,
)
from .profiler import PhaseProfiler, RunReport, build_run_report
from .registry import (
    DEFAULT_TIME_BUCKETS,
    DEFAULT_WORD_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    current_global_metrics,
    disable_global_metrics,
    enable_global_metrics,
)
from .runtime import (
    RUNTIME_PHASES,
    RankLane,
    RunProfile,
    RuntimeProfiler,
    build_sim_profile,
)

__all__ = [
    "Counter",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_WORD_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PhaseProfiler",
    "RUNTIME_PHASES",
    "RankLane",
    "RunProfile",
    "RunReport",
    "RuntimeProfiler",
    "build_chrome_trace",
    "build_run_report",
    "build_sim_profile",
    "clear_layout_caches",
    "current_global_metrics",
    "disable_global_metrics",
    "enable_global_metrics",
    "layout_cache_stats",
    "publish_layout_cache_stats",
    "snapshot_rows",
    "trace_metadata",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_metrics",
    "write_metrics_csv",
    "write_metrics_json",
]
