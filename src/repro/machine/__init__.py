"""Simulated coarse-grained distributed-memory parallel machine.

This package implements the machine model of Section 2 of the paper: a set
of processors with private memories joined by a virtual crossbar, where a
message of ``m`` words costs ``tau + mu * m``, a unit of local computation
costs ``delta``, and (optionally, as on the CM-5) a hardware control network
performs combining scans/reductions in time linear in the vector length.

Programs are written SPMD-style as generator functions; see
:mod:`repro.machine.context` for the programming model and
:mod:`repro.machine.engine` for scheduling and clock semantics.

Observability: attach a :class:`Tracer` (event stream) and/or a
:class:`repro.obs.MetricsRegistry` (counters/histograms) to a
:class:`Machine`; both are free when absent.  Export and reporting live
in :mod:`repro.obs` — see ``docs/observability.md``.
"""

from .context import Context, payload_words
from .engine import Machine
from .errors import (
    CollectiveMismatchError,
    DeadlockError,
    MachineError,
    MessageError,
    PhaseError,
    ProgramError,
    WatchdogError,
)
from .m2m import SCHEDULES, exchange, exchange_counts
from .ops import ANY, Barrier, CollectiveOp, Message, Recv
from .spec import CM5, ETHERNET_CLUSTER, IDEAL, LocalCostModel, MachineSpec
from .stats import DEFAULT_PHASE, ProcStats, RunResult
from .topology import Crossbar, Hypercube, Mesh2D, Ring, Topology, make_topology
from .trace import TraceEvent, Tracer

__all__ = [
    "ANY",
    "Barrier",
    "CM5",
    "Crossbar",
    "Hypercube",
    "Mesh2D",
    "Ring",
    "Topology",
    "TraceEvent",
    "Tracer",
    "make_topology",
    "CollectiveMismatchError",
    "CollectiveOp",
    "Context",
    "DEFAULT_PHASE",
    "DeadlockError",
    "ETHERNET_CLUSTER",
    "IDEAL",
    "LocalCostModel",
    "Machine",
    "MachineError",
    "MachineSpec",
    "Message",
    "MessageError",
    "PhaseError",
    "ProcStats",
    "ProgramError",
    "Recv",
    "RunResult",
    "SCHEDULES",
    "WatchdogError",
    "exchange",
    "exchange_counts",
    "payload_words",
]
