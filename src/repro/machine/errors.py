"""Exception hierarchy for the coarse-grained machine simulator.

The simulator is deterministic, so every error below is reproducible: the
same program on the same :class:`~repro.machine.spec.MachineSpec` either
always raises or never does.  Errors carry enough rank-level state to debug
SPMD programs (which rank was blocked on what, which message could not be
matched, and so on).
"""

from __future__ import annotations

__all__ = [
    "MachineError",
    "DeadlockError",
    "ProgramError",
    "CollectiveMismatchError",
    "MessageError",
    "PhaseError",
    "TimeDomainError",
    "WatchdogError",
]


class MachineError(Exception):
    """Base class for all simulator errors."""


class DeadlockError(MachineError):
    """Every live rank is blocked on a receive that can never be satisfied.

    Raised by the engine when no rank is runnable, at least one rank is
    blocked, and no queued or in-flight message can match any pending
    receive.  The message lists each blocked rank and the (source, tag)
    pattern it is waiting for; :attr:`wait_for` additionally carries the
    wait-for graph — for each blocked rank, the ranks whose progress
    could unblock it (the named receive source, or the collective
    members that have not arrived) — so cyclic waits can be read off
    directly.
    """

    def __init__(
        self,
        blocked: dict[int, str],
        wait_for: dict[int, tuple[int, ...]] | None = None,
    ):
        self.blocked = dict(blocked)
        self.wait_for = {r: tuple(w) for r, w in (wait_for or {}).items()}
        lines = ", ".join(f"rank {r}: waiting on {w}" for r, w in sorted(blocked.items()))
        detail = f"deadlock: all live ranks blocked ({lines})"
        if self.wait_for:
            edges = "; ".join(
                f"{r} <- {list(w)}" for r, w in sorted(self.wait_for.items())
            )
            detail += f" [wait-for graph: {edges}]"
        super().__init__(detail)


class WatchdogError(MachineError):
    """The run exceeded its progress budget (steps or simulated time).

    A livelock — e.g. two ranks ping-ponging forever — never raises
    :class:`DeadlockError` because some rank is always runnable; the
    watchdog budgets passed to :class:`~repro.machine.engine.Machine`
    bound it instead.
    """

    def __init__(self, kind: str, limit: float, reached: float):
        self.kind = kind
        self.limit = limit
        self.reached = reached
        unit = "steps" if kind == "steps" else "simulated seconds"
        super().__init__(
            f"watchdog: run exceeded its {kind} budget "
            f"({reached:g} > {limit:g} {unit})"
        )


class ProgramError(MachineError):
    """An SPMD program raised, or yielded something the engine cannot run.

    The original exception (if any) is attached as ``__cause__`` and the
    offending rank is recorded in :attr:`rank`.
    """

    def __init__(self, rank: int, detail: str):
        self.rank = rank
        super().__init__(f"rank {rank}: {detail}")


class CollectiveMismatchError(MachineError):
    """Members of a synchronizing collective disagreed about the operation.

    Every participant of a :class:`~repro.machine.ops.CollectiveOp` must name
    the same group and the same kind; anything else is an SPMD bug in the
    caller, not a recoverable condition.
    """


class MessageError(MachineError):
    """A send or receive was malformed (negative size, bad rank, ...)."""


class PhaseError(MachineError):
    """Phase bookkeeping was used inconsistently (e.g. empty phase name)."""


class TimeDomainError(MachineError):
    """An aggregate tried to combine times from different domains.

    A :class:`~repro.machine.stats.RunResult` carries a ``time_domain``:
    ``"simulated"`` (CM-5-scale clock charged from the
    :class:`~repro.machine.spec.MachineSpec` cost model) or ``"wall"``
    (real host seconds measured by the multiprocessing backend).  The two
    are unrelated scales — a sum or comparison across them is garbage, so
    the aggregation helpers refuse instead.
    """

    def __init__(self, domains):
        self.domains = tuple(sorted(set(domains)))
        super().__init__(
            f"cannot aggregate times across domains {list(self.domains)}; "
            f"simulated clocks and wall clocks are unrelated scales"
        )
