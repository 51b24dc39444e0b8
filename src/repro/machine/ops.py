"""Operations an SPMD program may yield to the engine.

Programs are Python generator functions with signature ``program(ctx, ...)``.
Purely local actions (charging work, sending a message, switching phase) are
ordinary method calls on the :class:`~repro.machine.context.Context`; only
actions that may *block* — receiving a message, synchronizing a collective —
are expressed by yielding one of the op objects below.  The engine resumes
the generator with the op's result (a :class:`Message` for :class:`Recv`,
the combined payload for :class:`CollectiveOp`, ``None`` for
:class:`Barrier`).

Keeping blocking ops explicit makes programs read like message-passing code::

    def worker(ctx):
        ctx.send(0, my_data, words=len(my_data))
        reply = yield Recv(source=0)
        ctx.work(len(reply.payload))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

__all__ = ["ANY", "Message", "Recv", "CollectiveOp", "Barrier"]


class _Any:
    """Wildcard sentinel for ``source`` / ``tag`` matching."""

    _instance: "_Any | None" = None

    def __new__(cls) -> "_Any":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "ANY"


#: Match any source rank or any tag in a :class:`Recv`.
ANY = _Any()


@dataclass(frozen=True, slots=True)
class Message:
    """A delivered point-to-point message.

    Attributes
    ----------
    source:
        sending rank.
    dest:
        receiving rank.
    tag:
        integer tag chosen by the sender.
    payload:
        arbitrary Python object; the simulator never copies it, so senders
        must not mutate a payload after sending (programs in this library
        send immutable tuples or freshly allocated numpy arrays).
    words:
        the size charged to the network, in 4-byte words.  This is the
        *modeled* size, set explicitly by the sender; it need not equal the
        Python object's memory footprint.
    send_time:
        sender's local clock when the send was issued.
    arrival_time:
        time at which the message is available at the receiver
        (``send_time + tau + mu * words``).
    seq:
        global sequence number, used only to break arrival-time ties
        deterministically.
    """

    source: int
    dest: int
    tag: int
    payload: Any
    words: int
    send_time: float
    arrival_time: float
    seq: int

    def __repr__(self) -> str:
        return (
            f"Message({self.source}->{self.dest}, tag={self.tag}, "
            f"words={self.words}, arrives={self.arrival_time:.6f})"
        )


@dataclass(frozen=True, slots=True)
class Recv:
    """Blocking receive.

    ``source`` and ``tag`` may each be a concrete value or :data:`ANY`.
    Among queued messages that match, the engine delivers the one with the
    smallest ``(arrival_time, seq)``; per (source, tag) channel this gives
    FIFO order, which is the ordering guarantee the rest of the library
    relies on.
    """

    source: Any = ANY
    tag: Any = ANY

    def matches(self, msg: Message) -> bool:
        if self.source is not ANY and msg.source != self.source:
            return False
        if self.tag is not ANY and msg.tag != self.tag:
            return False
        return True

    def describe(self) -> str:
        src = "ANY" if self.source is ANY else str(self.source)
        tag = "ANY" if self.tag is ANY else str(self.tag)
        return f"Recv(source={src}, tag={tag})"


@dataclass(frozen=True)
class CollectiveOp:
    """A synchronizing collective executed by the engine itself.

    All ranks listed in ``group`` must yield a ``CollectiveOp`` with the
    same ``group``, ``kind`` and ``key``; the engine gathers their
    ``payload`` values, applies ``combine`` once, charges every member
    ``cost_seconds`` on top of the synchronized clock (the max of the
    members' clocks), and resumes each member with the combined result.

    This models *hardware-combining* primitives — on the CM-5, the control
    network performs scans and reductions without any data-network traffic.
    Software collectives (trees over point-to-point messages) live in
    :mod:`repro.collectives` instead and never use this op.

    Attributes
    ----------
    group:
        sorted tuple of participating ranks.
    kind:
        short operation name (``"prs"``, ``"barrier"``, ...); purely for
        mismatch checking and tracing.
    key:
        per-call-site disambiguator.  Two different collective calls that
        could be outstanding at once must use different keys; SPMD programs
        that execute the same call sequence on every member rank may leave
        it at 0.
    payload:
        this rank's contribution.
    combine:
        function ``(payloads: dict[rank, payload]) -> (results: dict[rank,
        Any], words: int)`` run once when the group is complete.  ``words``
        is the control-network traffic volume used for cost accounting.
    cost_seconds:
        explicit extra cost per member; if ``None`` the engine charges
        ``spec.ctrl_time(words)`` using the ``words`` returned by
        ``combine``.
    """

    group: tuple[int, ...]
    kind: str
    payload: Any = None
    key: int = 0
    combine: Callable[[dict], tuple[dict, int]] | None = None
    cost_seconds: float | None = None

    def __post_init__(self) -> None:
        if tuple(sorted(self.group)) != tuple(self.group):
            raise ValueError(f"collective group must be sorted: {self.group}")
        if len(set(self.group)) != len(self.group):
            raise ValueError(f"collective group has duplicates: {self.group}")

    def describe(self) -> str:
        return f"CollectiveOp(kind={self.kind!r}, key={self.key}, group={self.group})"


def Barrier(group: Sequence[int], key: int = 0) -> CollectiveOp:
    """A pure synchronization collective: clocks meet at the group max.

    Modeled on the CM-5 control network's global-synchronization capability
    (a few microseconds, here charged as one zero-word control operation).
    """

    def _combine(payloads: dict) -> tuple[dict, int]:
        return ({r: None for r in payloads}, 0)

    return CollectiveOp(group=tuple(sorted(group)), kind="barrier", key=key, combine=_combine)
