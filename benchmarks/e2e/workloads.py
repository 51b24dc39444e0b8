"""The four workloads and their parameters.

Two library workloads call ``repro.core.api`` in a fresh worker process;
two service workloads drive a real ``python -m repro serve``.  Each pair
differs in exactly the mechanism an optimisation would target, so one
workload of the pair exercises it and the other predicts no change (see
README.md for the layer-to-workload map).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LibKind:
    """One kind of library call: an op over one geometry and density."""

    name: str
    op: str  # "pack" | "unpack"
    shape: tuple[int, ...]
    grid: tuple[int, ...]
    density: float
    scheme: str


LIB_KINDS = (
    LibKind("pack1d", "pack", (1 << 20,), (64,), 0.5, "cms"),
    LibKind("unpack1d", "unpack", (1 << 20,), (64,), 0.5, "css"),
    LibKind("pack2d", "pack", (1024, 1024), (8, 8), 0.3, "cms"),
)
#: Distinct masks per kind; inputs are called round-robin.
LIB_MASKS_PER_KIND = 8
#: Tail percentile of library calls: ``lib_cold``'s ~670 calls per run
#: leave fewer than ten samples beyond p99.
LIB_TAIL_PCT = 90.0


@dataclass(frozen=True)
class LibWorkload:
    name: str
    plan_cache: bool  # one shared PlanCache, filled during warm-up


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    backend: str
    warm: int | None  # `repro serve --warm`
    n: int
    density: float
    op_weights: tuple[tuple[str, float], ...]
    hot_masks: int  # size of the recurring mask pool
    fresh_fraction: float  # share of requests with a never-seen mask
    rate: float  # open-loop Poisson rate, requests/s
    outstanding: int  # closed-loop capacity phase, per connection


SERVE_TAIL_PCT = 99.0
CONNECTIONS = 2
#: Ranks of every service request's 1-D grid.
PROCS = 2
#: Distinct data arrays per service stream.
DATA_ARRAYS = 32

WORKLOADS = {
    w.name: w
    for w in (
        LibWorkload("lib_cold", plan_cache=False),
        LibWorkload("lib_warm", plan_cache=True),
        ServeWorkload(
            "serve_hot", backend="sim", warm=None, n=1024, density=0.1,
            op_weights=(("pack", 1.0),), hot_masks=2, fresh_fraction=0.0,
            rate=600.0, outstanding=16,
        ),
        ServeWorkload(
            "serve_gang", backend="supervised", warm=2, n=16384, density=0.3,
            op_weights=(("pack", 0.4), ("unpack", 0.4), ("ranking", 0.2)),
            hot_masks=16, fresh_fraction=0.25, rate=100.0, outstanding=8,
        ),
    )
}


def get(name: str):
    try:
        return WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}"
        ) from None


def phase_seconds(workload, seconds: float) -> dict[str, float]:
    """How one run's measured ``seconds`` split into phases: all of it
    timed for a library workload; two thirds open loop and one third
    closed-loop capacity for a service workload."""
    if isinstance(workload, LibWorkload):
        return {"timed": seconds}
    return {"open": seconds * 2.0 / 3.0, "capacity": seconds / 3.0}
