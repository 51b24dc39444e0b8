"""Real-process chaos plans for the multiprocessing runtime.

The simulated network is reliable, as in the paper's machine model; a
:class:`ChaosPlan` injects faults into an actual gang of OS processes
instead — a rank really receives
``SIGKILL`` mid-collective, really freezes under ``SIGSTOP``, really
starts late, or really posts a malformed result message — so the
supervisor's recovery machinery (`repro.runtime.supervisor`) is tested
against the operating system, not a model of it.

Determinism comes from *placement*, not timing: every event names the
rank, the logical operation index and the program phase at which it
fires, and the faults are **self-inflicted** — the worker looks up its
own events and signals *itself* at the exact phase boundary — so a
seeded plan reproduces the same fault at the same algorithmic point on
every run, immune to host scheduling jitter.

Event kinds
-----------
``kill``
    the rank sends itself ``SIGKILL`` when it reaches the phase: a hard
    crash with no cleanup, no result message, no exit handler.
``stop``
    the rank sends itself ``SIGSTOP``: the process stays alive but every
    thread (including its heartbeat) freezes — the canonical *hang*.
``delay``
    the rank sleeps ``seconds`` at the phase (delayed start when
    ``phase="spawn"``, mid-op straggler otherwise).
``poison``
    the rank completes the operation but posts a truncated result
    message, exercising the supervisor's poisoned-result validation.

Phases
------
``phase`` matches by prefix against the program's own ``ctx.phase(...)``
labels, plus five runtime pseudo-phases: ``"spawn"`` (worker entry,
before it reports ready), ``"start"`` (op received, before the program
runs), ``"collective"`` (entry to any collective protocol round),
``"ring_wait"`` (the rank's first transition from polling an empty shm
ring to blocking on its doorbell — ring transport only, the
kill-during-ring-wait recovery scenario), and ``"flush"`` (program
done, before the result is posted).

Usage::

    from repro.faults.chaos import ChaosEvent, ChaosPlan
    plan = ChaosPlan(events=(
        ChaosEvent(kind="kill", rank=1, op_index=0, phase="collective"),
    ))
    sup = GangSupervisor(chaos=plan)   # recovers: rebuild + retry
    MpBackend(chaos=plan)              # retries off: MpGangError

Each event fires on at most ``times`` attempts of its operation (default
1), so a supervised retry after a single kill runs clean — raise
``times`` above the retry budget to exercise exhaustion and fallback.
"""

from __future__ import annotations

import os
import random
import signal
import time
from dataclasses import dataclass
from typing import Sequence

__all__ = ["ChaosEvent", "ChaosPlan"]

#: Runtime pseudo-phases an event may target, besides program phase labels.
PSEUDO_PHASES = ("spawn", "start", "collective", "ring_wait", "flush")

_KINDS = ("kill", "stop", "delay", "poison")


@dataclass(frozen=True)
class ChaosEvent:
    """One placed fault: *what* happens to *whom*, *when*.

    Attributes
    ----------
    kind:
        ``"kill"`` | ``"stop"`` | ``"delay"`` | ``"poison"``.
    rank:
        the victim rank.
    op_index:
        the logical operation (0-based, in supervisor submission order;
        for ``phase="spawn"`` it is the op whose gang fork the event
        hits, and ``warm()`` forks for the next op).  Every
        :class:`~repro.runtime.mp.MpBackend` call runs on a fresh one-op
        supervisor, so it is op 0.
    phase:
        prefix-matched against ``ctx.phase(...)`` labels and the
        pseudo-phases ``spawn`` / ``start`` / ``collective`` /
        ``ring_wait`` / ``flush``.
    seconds:
        sleep length for ``kind="delay"`` (ignored otherwise).
    times:
        on how many *attempts* of the operation the event fires; the
        supervisor decrements this per delivery, so ``times=1`` means
        the retry runs clean.
    """

    kind: str
    rank: int
    op_index: int = 0
    phase: str = "start"
    seconds: float = 0.0
    times: int = 1

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown chaos kind {self.kind!r}; pick from {_KINDS}")
        if self.rank < 0:
            raise ValueError(f"chaos rank must be >= 0, got {self.rank}")
        if self.op_index < 0:
            raise ValueError(f"chaos op_index must be >= 0, got {self.op_index}")
        if self.seconds < 0:
            raise ValueError(f"chaos seconds must be >= 0, got {self.seconds}")
        if self.times < 1:
            raise ValueError(f"chaos times must be >= 1, got {self.times}")

    def matches_phase(self, label: str) -> bool:
        return label == self.phase or label.startswith(self.phase)

    def perform(self) -> None:
        """Inflict this event on the calling process (worker side).

        ``poison`` is intentionally a no-op here: it does not interrupt
        execution, it changes what the worker *posts* (the runtime checks
        for pending poison events at result time).
        """
        if self.kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif self.kind == "stop":
            os.kill(os.getpid(), signal.SIGSTOP)
        elif self.kind == "delay":
            time.sleep(self.seconds)

    def describe(self) -> str:
        extra = f" after {self.seconds:g}s" if self.kind == "delay" else ""
        rep = f" x{self.times}" if self.times != 1 else ""
        return (f"{self.kind}(rank={self.rank}, op={self.op_index}, "
                f"phase={self.phase!r}{extra}){rep}")


def fire_chaos(events: Sequence[ChaosEvent], label: str) -> None:
    """Perform every event in ``events`` whose phase matches ``label``.

    Called from the worker's phase hooks with the events already filtered
    to this rank/op/attempt — placement logic stays host-side, the worker
    only pulls its own trigger.
    """
    for ev in events:
        if ev.matches_phase(label):
            ev.perform()


@dataclass(frozen=True)
class ChaosPlan:
    """An immutable, seeded collection of :class:`ChaosEvent` placements.

    The plan itself is pure data (picklable, shippable to workers); all
    bookkeeping about *delivered* events lives in the consumer: the
    supervisor keeps a per-event countdown so retries see ``times``
    honoured (``MpBackend`` runs each call on a fresh one-op supervisor
    with retries off, so a call delivers its op-0 events once).
    """

    events: tuple[ChaosEvent, ...] = ()
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))

    @classmethod
    def random(
        cls,
        seed: int,
        nprocs: int,
        *,
        n_events: int = 1,
        ops: int = 1,
        kinds: Sequence[str] = ("kill",),
        phases: Sequence[str] = ("start", "collective", "flush"),
        spare_rank0: bool = True,
    ) -> "ChaosPlan":
        """Draw ``n_events`` placements from ``random.Random(seed)``.

        ``spare_rank0`` keeps rank 0 out of the victim pool by default so
        a 2-rank recovery demo still has a surviving collective root on
        the rebuilt gang's first retry (any rank may still be chosen when
        disabled).
        """
        rng = random.Random(seed)
        lo = 1 if (spare_rank0 and nprocs > 1) else 0
        events = tuple(
            ChaosEvent(
                kind=rng.choice(tuple(kinds)),
                rank=rng.randrange(lo, nprocs),
                op_index=rng.randrange(ops),
                phase=rng.choice(tuple(phases)),
            )
            for _ in range(n_events)
        )
        return cls(events=events, seed=seed)

    @property
    def is_noop(self) -> bool:
        return not self.events

    def describe(self) -> str:
        if self.is_noop:
            return "ChaosPlan(no events)"
        head = f"ChaosPlan(seed={self.seed}, {len(self.events)} events)"
        return head + "".join(f"\n  - {ev.describe()}" for ev in self.events)
