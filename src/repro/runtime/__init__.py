"""Pluggable execution backends for SPMD programs.

One program source, three machines: ``get_backend("sim")`` runs on the
deterministic cost-model simulator; ``get_backend("mp")`` runs one OS
process per rank on real cores, with shared-memory input arrays and a
zero-copy shm ring transport (``transport="queue"`` restores the
pickled-Queue wire); ``get_backend("supervised")`` runs the same real
processes as a *persistent warm gang* under a
:class:`~repro.runtime.supervisor.GangSupervisor` — heartbeat-monitored,
rebuilt and retried on rank death/hang under a seeded
:class:`~repro.runtime.supervisor.RetryPolicy`, optionally degrading to
the simulator when the budget is spent.  See :mod:`repro.runtime.base`
for the contract and ``docs/runtime.md`` for the design.
"""

from .base import (
    BACKEND_NAMES,
    TRANSPORT_NAMES,
    Backend,
    BackendError,
    Deadline,
    available_backends,
    get_backend,
    resolve_transport,
)
from .mp import MpBackend, MpGangError
from .primitives import allreduce, barrier, exclusive_prefix_sum
from .sim import SimBackend
from .supervisor import (
    GangSupervisor,
    RetryPolicy,
    SupervisorEvent,
    SupervisorStats,
    default_supervisor,
    shutdown_default_supervisor,
)

__all__ = [
    "BACKEND_NAMES",
    "TRANSPORT_NAMES",
    "Backend",
    "BackendError",
    "Deadline",
    "resolve_transport",
    "SimBackend",
    "MpBackend",
    "MpGangError",
    "GangSupervisor",
    "RetryPolicy",
    "SupervisorEvent",
    "SupervisorStats",
    "available_backends",
    "get_backend",
    "default_supervisor",
    "shutdown_default_supervisor",
    "barrier",
    "allreduce",
    "exclusive_prefix_sum",
]
