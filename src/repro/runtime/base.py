"""The execution-backend seam: one program, pluggable machines.

Every phase of the Bae–Ranka algorithm — local scan, dimension-by-dimension
prefix-reduction-sum, many-to-many redistribution — is written once as an
SPMD generator program against :class:`~repro.machine.context.Context`.
A :class:`Backend` decides *where* those programs execute:

* :class:`~repro.runtime.sim.SimBackend` — the deterministic cooperative
  simulator (:class:`~repro.machine.engine.Machine`), charging the paper's
  two-level cost model.  Times are **simulated** CM-5-scale seconds, and a
  run is bit-for-bit reproducible.
* :class:`~repro.runtime.mp.MpBackend` — one OS process per rank over
  ``multiprocessing``, with shared-memory-backed input arrays and a
  shared-memory ring (or pipe/queue) message transport, run as a one-op
  gang of :mod:`repro.runtime.supervisor`.  Times are **wall** seconds
  measured on the host's cores.

Both backends run the *same* program source: the cooperative yield
protocol (``yield ctx.recv(...)``, ``yield CollectiveOp(...)``) doubles as
the transport-neutral op language, so the backend boundary sits exactly
between the redistribution plan and the transport that executes it.

Rank-argument construction goes through ``make_rank_args(rank, shared)``
rather than a pre-built list: the host hands the backend the *global*
arrays once (``shared``), and each rank extracts only the blocks it owns
(:meth:`~repro.hpf.grid.GridLayout.local_block`).  Under the simulator
this is the same lazy view-slicing as before; under the multiprocessing
backend it is what keeps the per-rank block extraction inside the rank's
own process — the host never pickles ``P`` blocks through a pipe.
"""

from __future__ import annotations

import os
import platform
import time
import warnings
from abc import ABC, abstractmethod
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..machine.stats import RunResult

__all__ = [
    "Backend",
    "BackendError",
    "BACKEND_NAMES",
    "Deadline",
    "TRANSPORT_NAMES",
    "get_backend",
    "available_backends",
    "default_transport",
    "resolve_transport",
]

#: Registered backend names, in preference order.
BACKEND_NAMES = ("sim", "mp", "supervised")

#: Message transports accepted by the process-per-rank backends.
#: ``ring`` is the zero-copy shared-memory ring matrix
#: (:mod:`repro.runtime.shm_ring`); ``queue`` is the original pickled
#: ``multiprocessing.Queue`` mailbox per rank.
TRANSPORT_NAMES = ("queue", "ring")

#: Architectures with a total-store-order memory model, where the ring
#: transport's plain-store head publication (payload bytes first, then
#: the int64 sequence counter) is safe without explicit barriers.  On
#: weakly-ordered CPUs (aarch64, ppc64le, riscv64) store-store
#: reordering could let a consumer observe the advanced head before the
#: payload is visible, so the default transport there is ``queue``.
_TSO_MACHINES = frozenset(
    {"x86_64", "amd64", "i386", "i486", "i586", "i686", "x86"}
)


def _ring_memory_model_safe() -> bool:
    return platform.machine().lower() in _TSO_MACHINES


def default_transport() -> str:
    """The platform default: ``ring`` on x86 (TSO), ``queue`` elsewhere."""
    return "ring" if _ring_memory_model_safe() else "queue"


def resolve_transport(transport: str | None) -> str:
    """Resolve a transport name.

    Explicit arg > ``REPRO_MP_TRANSPORT`` > :func:`default_transport`
    (``ring`` on x86, ``queue`` on weakly-ordered architectures — see
    :data:`_TSO_MACHINES`).  Forcing ``ring`` on a non-TSO machine is
    allowed for experiments but warns: the ring's lock-free publication
    relies on total store order.
    """
    if transport is None:
        transport = os.environ.get("REPRO_MP_TRANSPORT", default_transport())
    if transport not in TRANSPORT_NAMES:
        raise ValueError(
            f"unknown transport {transport!r}; pick from {TRANSPORT_NAMES}"
        )
    if transport == "ring" and not _ring_memory_model_safe():
        warnings.warn(
            f"the ring transport's lock-free head publication assumes a "
            f"total-store-order memory model; {platform.machine()} is "
            f"weakly-ordered and records may be observed before their "
            f"payload bytes — use transport='queue' for correctness",
            RuntimeWarning,
            stacklevel=2,
        )
    return transport


class Deadline:
    """One wall-clock deadline for the gang host's wait loop.

    The loop (``GangSupervisor._wait``, which both process backends run
    through) holds one for the op and one for the spawn, so a ring-wait
    that overruns surfaces with watchdog attribution (which ranks are
    still pending, how long we waited) instead of a generic wall timeout.

    A ``timeout`` of ``None`` never expires.
    """

    __slots__ = ("timeout", "_expiry")

    def __init__(self, timeout: float | None):
        self.timeout = timeout
        self._expiry = None if timeout is None else time.monotonic() + timeout

    def expired(self) -> bool:
        return self._expiry is not None and time.monotonic() >= self._expiry

    def remaining(self, cap: float = 0.2) -> float:
        """Seconds to block on the next poll: ``cap``-bounded time left."""
        if self._expiry is None:
            return cap
        return max(0.0, min(cap, self._expiry - time.monotonic()))

    def describe(self, subject: str, pending: Iterable[int]) -> str:
        """Watchdog attribution line for an expired deadline."""
        return (
            f"{subject} did not finish within {self.timeout:g}s "
            f"(ranks still pending: {sorted(pending)})"
        )


class BackendError(RuntimeError):
    """A backend could not run the gang (unsupported feature, bad config)."""


class Backend(ABC):
    """Abstract execution backend.

    Concrete backends expose the classic SPMD primitive set — barrier,
    send/recv message passing, combining collectives (allreduce /
    exclusive prefix sum via :mod:`repro.runtime.primitives`), and the
    many-to-many ``alltoallv`` (:func:`repro.machine.m2m.exchange`) — by
    executing generator programs that use those primitives through their
    per-rank :class:`~repro.machine.context.Context`.

    Attributes
    ----------
    name:
        short registry name (``"sim"``, ``"mp"``).
    time_domain:
        the domain of every time this backend reports: ``"simulated"``
        or ``"wall"``.  Copied onto the :class:`RunResult`.
    """

    name: str = "?"
    time_domain: str = "simulated"

    @abstractmethod
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
        """Execute ``program`` on every rank and return results and stats.

        Exactly one of ``make_rank_args`` / ``rank_args`` supplies the
        per-rank arguments (neither means every rank gets no arguments).
        ``make_rank_args(rank, shared)`` is called once per rank — in the
        rank's own process under process-per-rank backends — with
        ``shared`` the host-provided mapping of global (read-only) arrays.

        ``profile`` is an optional
        :class:`~repro.obs.runtime.RuntimeProfiler`: after the run it
        holds a cross-rank :class:`~repro.obs.runtime.RunProfile` (per-rank
        trace lanes, P×P communication matrix, phase-attribution table) in
        the backend's own time domain.  Profiles from different domains
        refuse to be compared, like the run aggregation helpers.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}(time_domain={self.time_domain!r})"


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`get_backend` (and the CLI ``--backend``)."""
    return BACKEND_NAMES


def get_backend(backend: "str | Backend" = "sim") -> Backend:
    """Resolve a backend name (or pass an instance through).

    ``"sim"`` → :class:`~repro.runtime.sim.SimBackend` (default, the seed
    behaviour); ``"mp"`` → :class:`~repro.runtime.mp.MpBackend`;
    ``"supervised"`` → the process-wide persistent
    :class:`~repro.runtime.supervisor.GangSupervisor` (one shared warm
    gang, reused across calls and shut down atexit — see
    :func:`~repro.runtime.supervisor.default_supervisor`).
    """
    if isinstance(backend, Backend):
        return backend
    if backend == "sim":
        from .sim import SimBackend

        return SimBackend()
    if backend == "mp":
        from .mp import MpBackend

        return MpBackend()
    if backend == "supervised":
        from .supervisor import default_supervisor

        return default_supervisor()
    raise ValueError(
        f"unknown backend {backend!r}; pick from {list(BACKEND_NAMES)}"
    )
