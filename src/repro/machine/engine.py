"""The SPMD execution engine.

:class:`Machine` runs one generator per rank, cooperatively scheduling them
until all complete.  Scheduling is round-robin over runnable ranks; a rank
leaves the runnable set only when it yields a blocking op (:class:`Recv`
with no matching message, or :class:`CollectiveOp` waiting for its group)
and re-enters it when the op can complete.  Sends are eager and buffered, so
they never block — matching the paper's model where a message simply costs
``tau + mu * m`` and contention is ignored.

Determinism
-----------
Given the same programs and arguments, a run is bit-for-bit reproducible:
ranks are resumed in rank order, message matching uses global sequence
numbers to break ties, and no real time or randomness enters the engine.
The network is reliable, as in the paper's model: every message sent is
delivered exactly once.

The watchdog
------------
When a run gets stuck, the engine attributes the failure: deadlocks
raise :class:`~.errors.DeadlockError` carrying the blocked-rank
wait-for graph, and ``step_budget`` / ``time_budget`` bound livelocks
with :class:`~.errors.WatchdogError`.

Clock semantics
---------------
Each rank has a local clock (see :mod:`repro.machine.stats`).  A receive
completes at ``max(receiver clock, message arrival time)``; the gap, if any,
is idle time.  A collective synchronizes all member clocks to the group
maximum before charging its cost.  The run's elapsed time is the maximum
final clock, and per-phase times are maxima of per-rank phase totals.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Any, Callable, Sequence

from .context import Context
from .errors import (
    CollectiveMismatchError,
    DeadlockError,
    ProgramError,
    WatchdogError,
)
from .mailbox import Mailbox
from .ops import ANY, CollectiveOp, Message, Recv
from .spec import CM5, MachineSpec
from .stats import ProcStats, RunResult

__all__ = ["Machine"]


class _Proc:
    """Book-keeping for one rank's generator."""

    __slots__ = ("rank", "gen", "waiting", "send_value", "finished", "result")

    def __init__(self, rank: int, gen):
        self.rank = rank
        self.gen = gen
        self.waiting: Recv | CollectiveOp | None = None
        self.send_value: Any = None
        self.finished = False
        self.result: Any = None


class _PendingCollective:
    """A collective op waiting for its full group to arrive."""

    __slots__ = ("op", "payloads", "arrived")

    def __init__(self, op: CollectiveOp):
        self.op = op
        self.payloads: dict[int, Any] = {}
        self.arrived: set[int] = set()

    def join(self, rank: int, op: CollectiveOp) -> None:
        if op.kind != self.op.kind:
            raise CollectiveMismatchError(
                f"rank {rank} joined kind {op.kind!r}, group started {self.op.kind!r}"
            )
        if op.group != self.op.group:
            raise CollectiveMismatchError(
                f"rank {rank} joined group {op.group}, expected {self.op.group}"
            )
        if rank in self.arrived:
            raise CollectiveMismatchError(
                f"rank {rank} joined collective {self.op.kind!r} "
                f"(key={self.op.key}) twice before the group completed — "
                f"mismatched keys on concurrent collectives?"
            )
        self.payloads[rank] = op.payload
        self.arrived.add(rank)

    @property
    def complete(self) -> bool:
        return self.arrived == set(self.op.group)


class _EngineMetrics:
    """Pre-bound metric handles for the engine's hot paths.

    Resolving ``registry.counter("machine.sends")`` on every send costs a
    dict lookup plus an isinstance check; binding the Counter/Histogram
    objects once at machine construction reduces each recording site to
    attribute loads.  Every site still guards on ``registry.enabled`` so a
    disabled registry costs one flag check per event and nothing else.
    """

    __slots__ = (
        "registry",
        "sends", "words_sent", "message_words",
        "recvs", "recv_wait_seconds",
        "port_stalls", "port_stall_seconds",
        "collectives", "collective_words",
        "collective_group_size", "collective_skew_seconds",
    )

    def __init__(self, registry):
        self.registry = registry
        self.sends = registry.counter("machine.sends")
        self.words_sent = registry.counter("machine.words_sent")
        self.message_words = registry.histogram("machine.message_words")
        self.recvs = registry.counter("machine.recvs")
        self.recv_wait_seconds = registry.histogram("machine.recv_wait_seconds")
        self.port_stalls = registry.counter("machine.port_stalls")
        self.port_stall_seconds = registry.histogram("machine.port_stall_seconds")
        self.collectives = registry.counter("machine.collectives")
        self.collective_words = registry.counter("machine.collective_words")
        self.collective_group_size = registry.histogram("machine.collective_group_size")
        self.collective_skew_seconds = registry.histogram("machine.collective_skew_seconds")


class Machine:
    """A simulated coarse-grained distributed-memory parallel machine.

    Parameters
    ----------
    nprocs:
        number of processors.
    spec:
        cost parameters; defaults to the CM-5 profile.

    A machine object is reusable: each :meth:`run` starts from fresh clocks
    and mailboxes.

    Observability
    -------------
    ``tracer`` (a :class:`~repro.machine.trace.Tracer`) records the event
    stream; ``metrics`` (a :class:`~repro.obs.registry.MetricsRegistry`)
    accumulates counters and histograms from the send / receive /
    collective / port-contention paths.  Both are optional and both are
    free when absent — every instrumentation site is guarded by a plain
    ``is not None`` check.  When ``metrics`` is omitted, the process-wide
    registry installed by :func:`repro.obs.enable_global_metrics` (if any)
    is used.
    """

    def __init__(
        self,
        nprocs: int,
        spec: MachineSpec = CM5,
        tracer=None,
        metrics=None,
        step_budget: int | None = None,
        time_budget: float | None = None,
    ):
        if nprocs < 1:
            raise ValueError(f"need at least one processor, got {nprocs}")
        if step_budget is not None and step_budget < 1:
            raise ValueError(f"step_budget must be >= 1, got {step_budget}")
        if time_budget is not None and time_budget <= 0:
            raise ValueError(f"time_budget must be > 0, got {time_budget}")
        self.nprocs = nprocs
        self.spec = spec
        self.tracer = tracer
        if metrics is None:
            from ..obs.registry import current_global_metrics

            metrics = current_global_metrics()
        self.metrics = metrics
        # Hot-path handles: bound once so per-event recording is attribute
        # loads plus an enabled-flag check (a disabled registry is a no-op).
        self._mx = _EngineMetrics(metrics) if metrics is not None else None
        #: Progress watchdog: max scheduler steps / max simulated seconds
        #: per run (None = unbounded, the seed behavior).
        self.step_budget = step_budget
        self.time_budget = time_budget
        # Run-scoped state, created in run():
        self._mailboxes: list[Mailbox] = []
        self._procs: list[_Proc] = []
        self._stats: list[ProcStats] = []
        self._runnable: deque[int] = deque()
        self._runnable_set: set[int] = set()
        self._pending_collectives: dict[tuple, _PendingCollective] = {}
        self._seq = 0
        self._steps_total = 0

    # ------------------------------------------------------------------ API
    def run(
        self,
        program: Callable,
        *args: Any,
        rank_args: Sequence[tuple] | None = None,
    ) -> RunResult:
        """Execute ``program`` on every rank and return results and stats.

        Parameters
        ----------
        program:
            generator function called as ``program(ctx, *args)`` (or
            ``program(ctx, *rank_args[rank])`` when ``rank_args`` is given).
            A plain function (non-generator) is also accepted for purely
            local programs.
        args:
            arguments shared by all ranks.
        rank_args:
            optional per-rank argument tuples, overriding ``args``.
        """
        if rank_args is not None and len(rank_args) != self.nprocs:
            raise ValueError(
                f"rank_args has {len(rank_args)} entries for {self.nprocs} ranks"
            )

        self._mailboxes = [Mailbox(r) for r in range(self.nprocs)]
        self._stats = [ProcStats(r) for r in range(self.nprocs)]
        self._pending_collectives = {}
        self._seq = 0
        self._procs = []
        self._runnable = deque()
        self._runnable_set = set()
        self._steps_total = 0
        # rx_port contention: per-destination busy schedule as parallel
        # sorted (starts, ends) lists of disjoint, coalesced intervals.
        self._port_busy: list[tuple[list[float], list[float]]] = [
            ([], []) for _ in range(self.nprocs)
        ]

        for r in range(self.nprocs):
            ctx = Context(r, self.nprocs, self.spec, self._stats[r], self)
            call_args = rank_args[r] if rank_args is not None else args
            gen_or_value = program(ctx, *call_args)
            proc = _Proc(r, None)
            if hasattr(gen_or_value, "send") and hasattr(gen_or_value, "throw"):
                proc.gen = gen_or_value
                self._procs.append(proc)
                self._make_runnable(r)
            else:
                # Plain function: already ran to completion during the call.
                proc.finished = True
                proc.result = gen_or_value
                self._procs.append(proc)

        self._loop()

        return RunResult(results=[p.result for p in self._procs], stats=self._stats)

    # --------------------------------------------------------------- engine
    def _make_runnable(self, rank: int) -> None:
        if rank not in self._runnable_set and not self._procs[rank].finished:
            self._runnable.append(rank)
            self._runnable_set.add(rank)

    def _loop(self) -> None:
        while True:
            if self._runnable:
                rank = self._runnable.popleft()
                self._runnable_set.discard(rank)
                self._steps_total += 1
                if self.step_budget is not None and self._steps_total > self.step_budget:
                    raise WatchdogError("steps", self.step_budget, self._steps_total)
                self._step(rank)
                if (
                    self.time_budget is not None
                    and self._stats[rank].clock > self.time_budget
                ):
                    raise WatchdogError(
                        "time", self.time_budget, self._stats[rank].clock
                    )
                continue
            # Nobody runnable: all done or a dead end.
            live = [p for p in self._procs if not p.finished]
            if not live:
                return
            # A blocked receive may still be satisfiable if a matching
            # message arrived while the rank was out of the queue (cannot
            # happen with current wake logic, but guard anyway).
            woke = False
            for p in live:
                if not isinstance(p.waiting, Recv):
                    continue
                msg = self._mailboxes[p.rank].match(p.waiting)
                if msg is None:
                    continue
                p.waiting = None
                self._complete_recv(p.rank, msg)
                p.send_value = msg
                self._make_runnable(p.rank)
                woke = True
            if woke:
                continue
            # Stuck for good: attribute the failure.
            blocked = {
                p.rank: (p.waiting.describe() if p.waiting is not None else "nothing")
                for p in live
            }
            raise DeadlockError(blocked, wait_for=self._wait_for_graph(live))

    # -------------------------------------------------------- stuck forensics
    def _waits_on(self, proc: _Proc) -> tuple[int, ...]:
        """Ranks whose progress could unblock ``proc`` right now."""
        op = proc.waiting
        if isinstance(op, Recv):
            if op.source is ANY:
                return tuple(
                    q.rank for q in self._procs
                    if q.rank != proc.rank and not q.finished
                )
            return (op.source,)
        if isinstance(op, CollectiveOp):
            key = (op.group, op.kind, op.key)
            pending = self._pending_collectives.get(key)
            arrived = pending.arrived if pending is not None else set()
            return tuple(sorted(set(op.group) - arrived))
        return ()

    def _wait_for_graph(self, live: list[_Proc]) -> dict[int, tuple[int, ...]]:
        return {p.rank: self._waits_on(p) for p in live if p.waiting is not None}

    def _step(self, rank: int) -> None:
        """Advance one rank until it blocks or finishes."""
        proc = self._procs[rank]
        while True:
            try:
                op = proc.gen.send(proc.send_value)
            except StopIteration as stop:
                proc.finished = True
                proc.result = stop.value
                return
            except Exception as exc:
                raise ProgramError(rank, f"program raised {type(exc).__name__}: {exc}") from exc
            proc.send_value = None

            if isinstance(op, Recv):
                msg = self._mailboxes[rank].match(op)
                if msg is None:
                    proc.waiting = op
                    return
                self._complete_recv(rank, msg)
                proc.send_value = msg
                continue

            if isinstance(op, CollectiveOp):
                finished = self._join_collective(rank, op)
                if not finished:
                    proc.waiting = op
                    return
                # This rank was the last to arrive.  _fire_collective set
                # proc.send_value and re-queued every member (including this
                # rank), so yield the timeslice and let the scheduler resume
                # it with the collective's result.
                return

            raise ProgramError(rank, f"yielded unsupported op {op!r}")

    # ------------------------------------------------------------- messages
    def _deliver(
        self,
        source: int,
        dest: int,
        tag: int,
        payload: Any,
        words: int,
        send_clock: float,
    ) -> None:
        """Called by Context.send: enqueue the message and wake the receiver."""
        mx = self._mx
        if mx is not None and mx.registry._enabled:
            mx.sends.inc()
            mx.words_sent.inc(words)
            mx.message_words.observe(words)
        if self.tracer is not None:
            self.tracer.record(
                send_clock, source, "send",
                dest=dest, tag=tag, words=words,
            )
        self._seq += 1
        arrival = send_clock  # sender already paid tau + mu*m
        if self.spec.rx_port and source != dest and words > 0:
            # Node contention: the message occupies the destination's
            # serial receive port for mu*words.  The transfer may start as
            # early as send_clock - transfer (overlapping the sender's own
            # charge), in the earliest gap of the port's busy schedule —
            # interval gap-filling keeps arrivals causal even though the
            # engine delivers messages in simulation order, which need not
            # be simulated-time order.
            transfer = self.spec.mu * words
            arrival = self._reserve_port(dest, send_clock - transfer, transfer)
            if mx is not None and mx.registry._enabled and arrival > send_clock:
                # The destination's serial receive port was busy: the
                # message landed later than the contention-free model
                # would have delivered it.
                mx.port_stalls.inc()
                mx.port_stall_seconds.observe(arrival - send_clock)
        msg = Message(
            source=source,
            dest=dest,
            tag=tag,
            payload=payload,
            words=words,
            send_time=send_clock,
            arrival_time=arrival,
            seq=self._seq,
        )
        self._mailboxes[dest].deposit(msg)
        # One wake attempt per deposit: only when the receiver is blocked
        # on a pattern this message satisfies is the (indexed, O(log n))
        # match run — it returns the best match, which is this message
        # unless an older pending one also satisfies the pattern.
        proc = self._procs[dest]
        waiting = proc.waiting
        if type(waiting) is Recv and waiting.matches(msg):
            taken = self._mailboxes[dest].match(waiting)
            proc.waiting = None
            self._complete_recv(dest, taken)
            proc.send_value = taken
            self._make_runnable(dest)

    def _reserve_port(self, dest: int, ready: float, transfer: float) -> float:
        """Book ``transfer`` seconds on dest's receive port, no earlier
        than ``ready``; returns the transfer's end time (the arrival).

        The busy schedule is kept as disjoint sorted intervals with
        touching neighbours merged, so locating the earliest fitting gap
        is a bisection plus a (typically zero-length) walk over the few
        intervals straddling ``ready`` — the seed implementation rescanned
        the whole schedule from the start for every message.  Gap choice
        is identical to the seed's first-fit scan: merging touching
        intervals never removes a gap, and intervals wholly before
        ``ready`` can never contain the booking.
        """
        starts, ends = self._port_busy[dest]
        n = len(starts)
        # First interval that ends after `ready` — everything before it is
        # already in the past relative to this booking.
        i = bisect_right(ends, ready)
        start = ready
        while i < n and starts[i] < start + transfer:
            # Interval i overlaps the candidate window: push past it.
            if ends[i] > start:
                start = ends[i]
            i += 1
        end = start + transfer
        # Insert [start, end) before interval i, merging touching runs.
        merge_prev = i > 0 and ends[i - 1] == start
        merge_next = i < n and starts[i] == end
        if merge_prev and merge_next:
            ends[i - 1] = ends[i]
            del starts[i], ends[i]
        elif merge_prev:
            ends[i - 1] = end
        elif merge_next:
            starts[i] = start
        else:
            starts.insert(i, start)
            ends.insert(i, end)
        return end

    def _complete_recv(self, rank: int, msg: Message) -> None:
        st = self._stats[rank]
        mx = self._mx
        if mx is not None and mx.registry._enabled:
            mx.recvs.inc()
            wait = msg.arrival_time - st.clock
            if wait > 0:
                mx.recv_wait_seconds.observe(wait)
        st.advance_to(msg.arrival_time)
        st.recvs += 1
        st.words_received += msg.words
        if self.tracer is not None:
            self.tracer.record(
                st.clock, rank, "recv",
                source=msg.source, tag=msg.tag, words=msg.words,
            )

    # ---------------------------------------------------------- collectives
    def _join_collective(self, rank: int, op: CollectiveOp) -> bool:
        if rank not in op.group:
            raise CollectiveMismatchError(f"rank {rank} not in its own group {op.group}")
        key = (op.group, op.kind, op.key)
        pending = self._pending_collectives.get(key)
        if pending is None:
            pending = _PendingCollective(op)
            self._pending_collectives[key] = pending
        pending.join(rank, op)
        if not pending.complete:
            return False
        del self._pending_collectives[key]
        self._fire_collective(pending)
        return True

    def _fire_collective(self, pending: _PendingCollective) -> None:
        op = pending.op
        members = op.group
        sync = max(self._stats[r].clock for r in members)
        if op.combine is not None:
            results, words = op.combine(pending.payloads)
        else:
            results, words = ({r: None for r in members}, 0)
        if op.cost_seconds is not None:
            cost = op.cost_seconds
        elif self.spec.has_control_network:
            cost = self.spec.ctrl_time(words)
        else:
            raise CollectiveMismatchError(
                f"collective {op.kind!r} needs a control network or explicit cost "
                f"on machine {self.spec.name!r}"
            )
        mx = self._mx
        if mx is not None and mx.registry._enabled:
            mx.collectives.inc()
            mx.collective_words.inc(words)
            mx.collective_group_size.observe(len(members))
            skew = sync - min(self._stats[r].clock for r in members)
            if skew > 0:
                mx.collective_skew_seconds.observe(skew)
        for r in members:
            st = self._stats[r]
            st.advance_to(sync)
            st.advance(cost)
            st.ctrl_ops += 1
            if self.tracer is not None:
                self.tracer.record(
                    st.clock, r, "collective", op=op.kind, group_size=len(members)
                )
            proc = self._procs[r]
            proc.waiting = None
            proc.send_value = results.get(r)
            self._make_runnable(r)

    def __repr__(self) -> str:
        return f"Machine(nprocs={self.nprocs}, spec={self.spec.name!r})"
