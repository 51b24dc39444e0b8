"""Per-rank execution context handed to SPMD programs.

A program is a generator function ``program(ctx, *args)``.  The context
exposes:

* non-blocking actions as plain method calls — :meth:`send`, :meth:`work`,
  :meth:`phase`, :meth:`elapse`;
* blocking actions as op constructors the program must ``yield`` —
  :meth:`recv`, :meth:`barrier` (see :mod:`repro.machine.ops`).

Example::

    def program(ctx, data):
        ctx.phase("exchange")
        right = (ctx.rank + 1) % ctx.size
        left = (ctx.rank - 1) % ctx.size
        ctx.send(right, data, words=len(data))
        msg = yield ctx.recv(source=left)
        ctx.work(len(msg.payload))
        return msg.payload
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from .errors import MessageError
from .ops import ANY, Barrier, CollectiveOp, Recv
from .spec import MachineSpec
from .stats import ProcStats

__all__ = ["Context", "payload_words"]


def payload_words(payload: Any) -> int:
    """Best-effort size, in 4-byte words, of a message payload.

    Used when the sender does not pass ``words`` explicitly.  Numpy arrays
    count their elements (the paper counts message volume in array
    elements); sized containers count their length; scalars count 1.
    """
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return int(payload.size)
    if isinstance(payload, (bytes, bytearray)):
        return (len(payload) + 3) // 4
    if isinstance(payload, (list, tuple)):
        return sum(payload_words(p) for p in payload)
    if isinstance(payload, dict):
        return sum(payload_words(v) for v in payload.values())
    return 1


class Context:
    """Handle through which one rank interacts with the simulated machine."""

    __slots__ = ("rank", "size", "spec", "stats", "_engine")

    #: Domain of this context's clock: programs that replay recorded
    #: charges (the plan/execute split) consult it to decide whether
    #: simulated time must be restored or wall time simply passes.
    time_domain = "simulated"

    def __init__(self, rank: int, size: int, spec: MachineSpec, stats: ProcStats, engine):
        self.rank = rank
        self.size = size
        self.spec = spec
        self.stats = stats
        self._engine = engine

    # ------------------------------------------------------------ local ops
    def work(self, ops: float) -> None:
        """Charge ``ops`` units of local computation (``delta`` each)."""
        if ops < 0:
            raise MessageError(f"rank {self.rank}: negative work {ops}")
        if ops == 0:
            return
        self.stats.charge_ops(ops)
        self.stats.advance(self.spec.work_time(ops))

    def elapse(self, seconds: float) -> None:
        """Advance this rank's clock by a raw duration (rarely needed)."""
        self.stats.advance(seconds)

    def phase(self, name: str) -> None:
        """Switch the phase label that subsequent time is attributed to."""
        self.stats.set_phase(name)
        tracer = getattr(self._engine, "tracer", None)
        if tracer is not None and tracer.capture_phases:
            tracer.record(self.stats.clock, self.rank, "phase", name=name)

    @property
    def clock(self) -> float:
        return self.stats.clock

    @property
    def current_phase(self) -> str:
        return self.stats.phase

    # ------------------------------------------------------------- metrics
    @property
    def metrics(self):
        """The machine's :class:`~repro.obs.registry.MetricsRegistry`, or
        ``None`` when the run is not instrumented."""
        return getattr(self._engine, "metrics", None)

    def count(self, name: str, n: float = 1) -> None:
        """Increment a counter metric; free no-op when metrics are absent.

        Algorithm code calls this at phase boundaries so instrumented runs
        accumulate structural quantities (exchange fan-outs, PRS fan-ins,
        selected-element counts) without any cost to plain runs.
        """
        m = self.metrics
        if m is not None:
            m.inc(name, n)

    def observe(self, name: str, value: float) -> None:
        """Record a histogram observation; free no-op when metrics are absent."""
        m = self.metrics
        if m is not None:
            m.observe(name, value)

    # ---------------------------------------------------------------- sends
    def send(
        self,
        dest: int,
        payload: Any,
        words: int | None = None,
        tag: int = 0,
    ) -> None:
        """Send a message; never blocks.

        The sender's clock advances by the full ``tau + mu * words`` (the
        two-level model charges the whole transfer to the communication
        step) and the message becomes available at the receiver at the
        sender's post-send clock.
        """
        if not (0 <= dest < self.size):
            raise MessageError(f"rank {self.rank}: bad destination {dest}")
        if words is None:
            words = payload_words(payload)
        if words < 0:
            raise MessageError(f"rank {self.rank}: negative message size {words}")
        hops = self.spec.hops_between(self.rank, dest)
        self.stats.advance(self.spec.message_time(words, hops))
        self.stats.sends += 1
        self.stats.words_sent += words
        self._engine._deliver(self.rank, dest, tag, payload, words, self.stats.clock)

    def local_copy(self, words: int, charge: bool = False) -> None:
        """Model a self-addressed transfer.

        The paper notes ("in our implementation local copy was not performed
        when a processor needed to send a message to itself") that self
        messages bypass the network entirely.  By default this is free; with
        ``charge=True`` it costs one local op per word (memcpy), which the
        ablation benchmarks use.
        """
        if charge:
            self.work(words)

    # ------------------------------------------------------------- blocking
    def recv(self, source: Any = ANY, tag: Any = ANY) -> Recv:
        """Build a receive op: use as ``msg = yield ctx.recv(src)``."""
        if source is not ANY and not (0 <= source < self.size):
            raise MessageError(f"rank {self.rank}: bad source {source}")
        return Recv(source=source, tag=tag)

    def barrier(self, group: Sequence[int] | None = None, key: int = 0) -> CollectiveOp:
        """Build a barrier op over ``group`` (default: all ranks)."""
        if group is None:
            group = range(self.size)
        return Barrier(group, key=key)

    # ------------------------------------------------------------- helpers
    def words_of(self, payload: Any) -> int:
        return payload_words(payload)

    def __repr__(self) -> str:
        return f"Context(rank={self.rank}/{self.size}, spec={self.spec.name})"
