"""repro — PACK/UNPACK on coarse-grained distributed-memory machines.

A full reproduction of Bae & Ranka, *PACK/UNPACK on Coarse-Grained
Distributed Memory Parallel Machines* (IPPS 1996): the parallel ranking
algorithm, the SSS/CSS/CMS storage and message schemes, the cyclic-to-block
redistribution pre-passes, and the prefix-reduction-sum collectives — all
running on a deterministic simulated machine implementing the paper's
two-level cost model.

Quick start::

    import numpy as np
    import repro

    a = np.arange(64.0).reshape(8, 8)
    m = a % 3 == 0
    result = repro.pack(a, m, grid=(2, 2), block=(2, 2), scheme="cms")
    print(result.vector)          # the packed elements, in array order
    print(result.times)           # simulated per-phase CM-5 times

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for the
reproduced tables and figures.
"""

from .machine import (
    CM5,
    ETHERNET_CLUSTER,
    IDEAL,
    Context,
    DeadlockError,
    LocalCostModel,
    Machine,
    MachineError,
    MachineSpec,
    RunResult,
)

__version__ = "1.1.0"

from .hpf import (
    BLOCK,
    CYCLIC,
    BlockCyclic,
    DimLayout,
    DistributedArray,
    GridLayout,
    VectorLayout,
)
from .core import (
    PackConfig,
    PackManyResult,
    PackResult,
    Plan,
    PlanCache,
    RankingResult,
    Scheme,
    UnpackResult,
    count,
    default_plan_cache,
    pack,
    pack_many,
    ranking,
    reset_default_plan_cache,
    unpack,
)
from .obs import MetricsRegistry, PhaseProfiler, RunReport
from .runtime import (
    Backend,
    BackendError,
    MpBackend,
    MpGangError,
    SimBackend,
    available_backends,
    get_backend,
)
from .serial import mask_ranks, pack_reference, unpack_reference

__all__ = [
    "BLOCK",
    "Backend",
    "BackendError",
    "BlockCyclic",
    "CM5",
    "CYCLIC",
    "Context",
    "DeadlockError",
    "DimLayout",
    "DistributedArray",
    "ETHERNET_CLUSTER",
    "GridLayout",
    "IDEAL",
    "LocalCostModel",
    "Machine",
    "MachineError",
    "MachineSpec",
    "MetricsRegistry",
    "MpBackend",
    "MpGangError",
    "PackConfig",
    "PackManyResult",
    "PackResult",
    "PhaseProfiler",
    "Plan",
    "PlanCache",
    "RankingResult",
    "RunReport",
    "RunResult",
    "Scheme",
    "SimBackend",
    "UnpackResult",
    "VectorLayout",
    "__version__",
    "available_backends",
    "count",
    "default_plan_cache",
    "get_backend",
    "mask_ranks",
    "pack",
    "pack_many",
    "pack_reference",
    "ranking",
    "reset_default_plan_cache",
    "unpack",
    "unpack_reference",
]
