"""The one gang host: spawn, dispatch, collect, deadline, chaos and reap.

Both process backends run their ranks through this module;
:mod:`repro.runtime.mp` holds only the rank side (context, driver,
transports, shared-memory boxes, profile buffers).

* ``backend="mp"`` — :class:`~repro.runtime.mp.MpBackend` — is a one-op
  supervised gang with retries off: every call forks a fresh gang (the op
  rides the fork), reaps it as soon as the results are home, and raises
  :class:`~repro.runtime.mp.MpGangError` on the first failure.
* ``backend="supervised"`` — :class:`GangSupervisor` — keeps the gang
  alive across ops and recovers from failures: the paper's PACK/UNPACK
  primitives assume a gang of processors that survives the whole
  computation.

What the supervisor does:

* **Persistent & warm** — ranks are forked *once* per gang epoch and
  then reused: each worker blocks in an op-dispatch loop on a per-rank
  control queue, runs each op through
  :func:`~repro.runtime.mp._run_program`, and posts the result home.
  A warm dispatch replaces a fork; a gang forked *for* an op gets that
  op in the fork instead.
* **Boxed** — a gang owns two shared-memory boxes from spawn to reap.
  The host pickles each op once (protocol 5) into the **inbox**: the
  shared input arrays and the arrays inside a ``make_rank_args``
  closure (a cached plan, say) travel out of band, as plain copies.
  A rank gets only a small ``(op_id, layout)`` command, reads the op
  out of the inbox without copying, and pickles its report into its
  own slot of the **outbox**; the host copies the report out.  The
  host rewrites the inbox only after every rank has reported the
  previous op, so no view of an op outlives it.  Boxes are grow-only:
  an op too large for the inbox grows it before dispatch, and a report
  too large for its slot travels in-band once and the outbox slots
  grow for the next op (``box_grows`` and the ``box_grow`` event count it).
  So a warm op creates and unlinks no shared-memory segment.
* **Supervised** — every worker runs a heartbeat thread beating a
  shared-memory board (and exiting if its host has died); the host's one
  wait loop multiplexes the result pipe, every child's exit sentinel,
  the board, and the deadlines in one ``connection.wait``.  Failures are
  *classified*: ``rank_death`` (exit sentinel), ``heartbeat_miss``
  (stale board — a SIGSTOPped or livelocked rank), ``op_timeout``
  (deadline with fresh heartbeats — a deadlock), ``poisoned_result``
  (malformed result message), ``spawn_failure`` (death before ready),
  and the non-retryable ``program_error`` (the rank itself raised).
* **Recovering** — on a retryable failure the supervisor reaps the whole
  gang (SIGKILL: stopped ranks can't process SIGTERM), rebuilds it
  under a new epoch, and retries the in-flight op under a seeded
  exponential-backoff-with-jitter :class:`RetryPolicy`.  Every message
  a rank sends is stamped ``(epoch, op_id)`` and stale stamps are
  dropped at the receiver, so an op retried after a rebuild is
  exactly-once from the caller's view: one ``run_spmd`` call, one
  result, bit-identical to a fault-free run.
* **Degrading** — when the retry budget is exhausted,
  ``on_exhaustion="fallback"`` reruns the op on the in-process
  :class:`~repro.runtime.sim.SimBackend` (results identical, times in
  the ``"simulated"`` domain) instead of raising; ``"raise"`` (default)
  surfaces :class:`~repro.runtime.mp.MpGangError`.

Because workers may be forked *before* an op's callables exist,
programs and ``make_rank_args`` closures are always frozen before
dispatch: pickled by reference when possible, otherwise marshalled code
objects plus recursively-frozen defaults and closure cells, thawed
against the worker's (fork-inherited) module globals — see
:func:`_freeze_callable`.  Closure state must therefore pickle, on
``mp`` as on ``supervised``: the op pickle rejects a closure over e.g.
a lock with :class:`~repro.runtime.base.BackendError` before any fork.

Lifecycle events (``rank_death``, ``rebuild``, ``retry``, ``fallback``,
``heartbeat_miss``, ...) are appended to :attr:`SupervisorStats.events`,
counted into the active :class:`~repro.obs.registry.MetricsRegistry`
(``supervisor.*``), and — for a profiled op — appended to the profile's
gang lanes as ``supervisor.*`` spans.

Chaos (:class:`~repro.faults.chaos.ChaosPlan`) is first-class: the
supervisor decrements each event's ``times`` budget per delivery, so a
``times=1`` kill recovers on the first retry while ``times > budget``
exercises exhaustion and fallback deterministically.
"""

from __future__ import annotations

import _thread
import atexit
import importlib
import marshal
import multiprocessing as _mp
import os
import pickle
import random
import sys
import threading
import time
import traceback
import types
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _conn_wait
from time import monotonic
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..faults.chaos import ChaosEvent, ChaosPlan, fire_chaos
from ..machine.spec import CM5
from ..machine.stats import RunResult, stats_from_snapshot
from .base import Backend, BackendError, Deadline, resolve_transport
from .mp import (
    MpGangError,
    _build_mp_profile,
    _make_transport,
    _BoxMap,
    _pickle_parts,
    _place,
    _ProfileBuffers,
    _ShmArena,
    _ShmBox,
    _spans,
    _unpickle,
    register_for_cleanup,
    _run_program,
)

__all__ = [
    "GangSupervisor",
    "RetryPolicy",
    "SupervisorEvent",
    "SupervisorStats",
    "default_supervisor",
    "shutdown_default_supervisor",
]

#: Worker exit code after a failed op (the traceback was shipped home
#: first) or on finding its host gone.
_CHILD_FAILED = 70


# ------------------------------------------------------------ retry policy
@dataclass(frozen=True)
class RetryPolicy:
    """Seeded exponential backoff with jitter.

    ``delays()`` yields ``max_retries`` sleep lengths:
    ``min(max_delay, base_delay * multiplier**i)`` scaled by a uniform
    jitter factor in ``[1 - jitter, 1 + jitter]`` drawn from
    ``random.Random(seed)`` — deterministic per policy instance, so a
    chaos run's recovery timeline is reproducible.
    """

    max_retries: int = 2
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not (0 <= self.jitter < 1):
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def delays(self):
        rng = random.Random(self.seed)
        for i in range(self.max_retries):
            base = min(self.max_delay, self.base_delay * self.multiplier ** i)
            yield base * (1 + self.jitter * (2 * rng.random() - 1))


# ------------------------------------------------------- events and stats
@dataclass(frozen=True)
class SupervisorEvent:
    """One lifecycle event: what happened, when (monotonic), to whom."""

    kind: str
    t: float
    op_id: int | None = None
    rank: int | None = None
    detail: str = ""


@dataclass
class SupervisorStats:
    """Aggregate lifecycle counters for one supervisor instance."""

    ops: int = 0
    warm_ops: int = 0
    cold_ops: int = 0
    retries: int = 0
    rebuilds: int = 0
    fallbacks: int = 0
    box_grows: int = 0
    gang_epoch: int = 0
    stale_dropped: int = 0
    failures: dict[str, int] = field(default_factory=dict)
    events: list[SupervisorEvent] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "ops": self.ops,
            "warm_ops": self.warm_ops,
            "cold_ops": self.cold_ops,
            "retries": self.retries,
            "rebuilds": self.rebuilds,
            "fallbacks": self.fallbacks,
            "box_grows": self.box_grows,
            "gang_epoch": self.gang_epoch,
            "stale_dropped": self.stale_dropped,
            "failures": dict(self.failures),
            "events": [
                {"kind": e.kind, "t": e.t, "op_id": e.op_id,
                 "rank": e.rank, "detail": e.detail}
                for e in self.events
            ],
        }


class _OpFailure(Exception):
    """Internal: one attempt failed; carries the classification."""

    def __init__(self, kind: str, rank: int | None, detail: str,
                 child_traceback: str | None = None):
        self.kind = kind
        self.rank = rank
        self.detail = detail
        self.child_traceback = child_traceback
        super().__init__(f"{kind}: {detail}")


# --------------------------------------------------------- heartbeat board
class _HeartbeatBoard:
    """One float64 per rank in shared memory: last beat, CLOCK_MONOTONIC.

    Created by the host *before* the fork, so workers inherit the mapping
    and beat it from a heartbeat thread.  Single-writer per slot; an 8-byte
    aligned store is atomic on every platform we run on.  A SIGSTOPped
    worker freezes all its threads — heartbeat included — which is
    exactly what makes a stopped rank distinguishable from a slow one.

    A slot still at zero means the rank has not beaten yet, i.e. is not
    ready: the first beat is a rank's proof that it got past spawn.  (A
    ``ready`` message only wakes a host waiting in ``warm()``.)
    """

    def __init__(self, nprocs: int):
        self.nprocs = nprocs
        self._arena = _ShmArena({"beats": np.zeros(nprocs)})
        self._arr = self._arena.views()["beats"]

    def beat(self, rank: int) -> None:
        self._arr[rank] = monotonic()

    def ages(self, now: float | None = None) -> list[float]:
        now = monotonic() if now is None else now
        return [float(now - t) for t in self._arr]

    def unready(self) -> set[int]:
        """Ranks that have not beaten yet."""
        return {r for r in range(self.nprocs) if self._arr[r] == 0.0}

    def destroy(self) -> None:
        self._arr = None
        self._arena.destroy()


# ---------------------------------------------------------- freeze / thaw
def _freeze_callable(fn: Callable | None):
    """Make ``fn`` shippable to a worker forked before ``fn`` existed.

    Module-level functions pickle by reference and import cleanly, so
    they ship as they are.  Local closures (``pack``'s
    ``make_rank_args``, a test's inline program) don't pickle: they ship
    as a :class:`_FrozenFunction`.  Anything else ships as it is, and the
    op pickle decides whether it can travel.
    """
    if not isinstance(fn, types.FunctionType):
        return fn
    try:
        pickle.dumps(fn, pickle.HIGHEST_PROTOCOL)
        return fn
    except Exception:
        pass
    try:
        return _FrozenFunction(fn)
    except Exception as exc:
        raise BackendError(
            f"gang cannot ship {fn.__qualname__}: closure state is not "
            f"picklable ({exc})"
        ) from exc


class _FrozenFunction:
    """A plain Python function shipped by value.

    Holds the marshalled code object and the function's defaults and
    closure cell contents, themselves frozen when they are functions.
    The values stay objects: the one op pickle ships them, numpy arrays
    out of band, and fails (as a ``"not picklable"``
    :class:`~repro.runtime.base.BackendError`) if one cannot travel.
    Unpickling rebuilds the function against the worker's fork-inherited
    module globals (the worker forked *after* the defining module was
    imported, including ``__main__`` and test modules).
    """

    __slots__ = ("code", "module", "defaults", "kwdefaults", "closure")

    def __init__(self, fn: types.FunctionType):
        self.code = marshal.dumps(fn.__code__)
        self.module = fn.__module__
        self.defaults = tuple(_freeze_callable(v) for v in (fn.__defaults__ or ()))
        self.kwdefaults = {
            k: _freeze_callable(v) for k, v in (fn.__kwdefaults__ or {}).items()
        }
        self.closure = tuple(
            _freeze_callable(c.cell_contents) for c in (fn.__closure__ or ())
        )

    def __reduce__(self):
        return (_thaw_function, (self.code, self.module, self.defaults,
                                 self.kwdefaults, self.closure))


def _thaw_function(code_b, module, defaults, kwdefaults, closure) -> Callable:
    code = marshal.loads(code_b)
    mod = sys.modules.get(module)
    if mod is None:  # pragma: no cover - fork inherits loaded modules
        mod = importlib.import_module(module)
    fn = types.FunctionType(
        code, mod.__dict__, code.co_name, defaults or None,
        tuple(types.CellType(v) for v in closure) or None,
    )
    if kwdefaults:
        fn.__kwdefaults__ = kwdefaults
    return fn


# ------------------------------------------------------------- worker loop
def _worker_main(
    rank: int,
    nprocs: int,
    epoch: int,
    host_pid: int,
    ctl_q,
    transport,
    result_q,
    board: _HeartbeatBoard,
    inbox,
    outbox,
    profile,
    heartbeat_interval: float | None,
    spawn_chaos: tuple[ChaosEvent, ...],
    first_cmds: Sequence[tuple],
) -> None:
    """Rank process: heartbeat + op-dispatch loop.

    All gang state is fork-inherited: queues, transport, board, and the
    mappings of the gang's boxes (``profile`` is ``None`` until a profiled
    op needs one).  An op command
    is small — ``(op_id, inbox layout, outbox slot, chaos, profile)`` —
    because the op itself waits in the inbox (see :func:`_serve_op`).  A
    gang forked *for* an op gets that command in the fork
    (``first_cmds``) instead of through the control queue, so a cold op
    costs no extra host round trip; a one-op gang's ``first_cmds`` end in
    ``shutdown``, and it has neither a control queue nor a heartbeat
    (``heartbeat_interval=None``).  Between ops a rank blocks on its
    control queue; it never spins.  The host rewrites the inbox only
    after every rank has reported the previous op (:meth:`_Gang.stage`),
    which is what lets a rank use the op's arrays in place.  Exits on a
    ``shutdown`` command, an op error (after shipping the traceback), a
    signal, or when its host is gone.

    A thread started right after the fork costs the rank a wait for a
    CPU its fresh peers compete for, so the cold path starts none it can
    avoid: the queues are SimpleQueues (synchronous puts, no feeder
    thread), and ``ready`` is the rank's first beat, backed by a message
    only when no op rode the fork to wake the host.
    """
    # Fork hygiene: the parent's layout LRU caches cover every rank; this
    # worker only needs its own (repro.hpf.caches).
    from ..hpf.caches import clear_layout_caches

    clear_layout_caches()
    if spawn_chaos:
        fire_chaos(spawn_chaos, "spawn")
    board.beat(rank)
    if not first_cmds:
        result_q.put(("ready", rank, epoch))

    def _beat():
        while True:
            if os.getppid() != host_pid:
                # Orphaned: the host died without reaping us (SIGKILL
                # runs no cleanup hook).  Exiting lets the host's
                # resource tracker, which waits on every holder of its
                # pipe, unlink the segments the host left behind.
                os._exit(_CHILD_FAILED)
            board.beat(rank)
            time.sleep(heartbeat_interval)

    if heartbeat_interval is not None:
        # Unlike threading.Thread.start, this does not wait for the thread
        # to be scheduled; the thread dies with the process.
        _thread.start_new_thread(_beat, ())
    boxes = (_BoxMap(inbox), _BoxMap(outbox), _BoxMap(profile))
    cmds = list(first_cmds)
    while True:
        cmd = cmds.pop(0) if cmds else ctl_q.get()
        if cmd[0] == "shutdown":
            break
        _serve_op(rank, nprocs, epoch, cmd, boxes, transport, result_q)
    # On a one-op gang a peer may still be waiting for a mailbox message
    # this rank queued, and the feeder may still have to pickle it out of
    # the inbox: flush while the inbox is mapped, then skip interpreter
    # teardown (atexit hooks belong to the parent).
    transport.child_flush()
    os._exit(0)


def _serve_op(rank: int, nprocs: int, epoch: int, cmd: tuple,
              boxes: tuple[_BoxMap, ...], transport, result_q) -> None:
    """Run one op command and post the report home.

    The op is read out of the inbox without copying: its shared arrays,
    and the plan arrays inside a ``make_rank_args`` closure, are views of
    the inbox.  The host rewrites the inbox only after every rank has
    reported this op, so the views stay valid for as long as the op
    runs; they die with this call's locals.  The report goes into the
    rank's outbox slot, and only its layout crosses the result pipe.  A
    report too large for the slot travels in-band, with the size the
    host should grow the slots to for the next op.
    """
    _, op_id, (in_name, in_spans), (out_name, out_off, out_size), \
        chaos, profile = cmd
    inbox, outbox, prof_box = boxes
    t_entry = monotonic()
    recorder = None
    try:
        if profile is not None:
            name, capacity = profile
            recorder = _ProfileBuffers(
                prof_box.buf(name), nprocs, capacity).recorder(rank)
            recorder.mark(0, t_entry)
        op = _unpickle(inbox.buf(in_name), in_spans, copy=False)
        rank_args = op["rank_args"]
        report = _run_program(
            rank, nprocs, op["spec"], op["program"], op["make_rank_args"],
            rank_args[rank] if rank_args is not None else None,
            op["shared"], transport, recorder,
            op["want_metrics"], op["want_trace"],
            t_entry=t_entry, stamp=(epoch, op_id), chaos=chaos,
        )
        if any(ev.kind == "poison" for ev in chaos):
            # Poisoned result: a truncated message, exercising the
            # host's validation instead of this rank's execution.
            result_q.put(("ok", rank, epoch))
            return
        parts = _pickle_parts(report)
        spans, end = _spans(parts, out_off)
        if end <= out_off + out_size:
            _place(outbox.buf(out_name), spans, parts)
            layout = ("box", spans)
        else:
            layout = ("inband", end - out_off,
                      pickle.dumps(report, pickle.HIGHEST_PROTOCOL))
        result_q.put(("ok", rank, epoch, op_id, layout))
    except BaseException:
        try:
            result_q.put(("error", rank, epoch, op_id, traceback.format_exc()))
        finally:
            os._exit(_CHILD_FAILED)


# -------------------------------------------------------------- gang state
#: Initial box sizes of a persistent gang.  Boxes are grow-only, and a
#: shared-memory page costs memory only once it is written.
_INBOX_BYTES = 1 << 20
_SLOT_BYTES = 1 << 18
_PAGE = 4096


def _grown(size: int, need: int) -> int:
    """A grow-only box's next size: at least double, page-rounded."""
    return -(-max(need, 2 * size) // _PAGE) * _PAGE


class _Gang:
    """One epoch of worker processes and their fork-shared plumbing.

    Besides the queues, the transport and the heartbeat board, a gang
    owns boxes for its whole life, unlinked at reap: the **inbox**,
    holding the current op as one protocol-5 pickle (header plus
    out-of-band buffers), the **outbox**, one slot per rank for its
    pickled report, both created before the fork, and the **profile**
    box, created by the first profiled op.  All are grow-only; growth
    happens in :meth:`stage`, between ops.
    """

    def __init__(self, epoch: int, nprocs: int, ctl, transport, result_q,
                 board: _HeartbeatBoard, inbox_bytes: int, slot_bytes: int):
        self.epoch = epoch
        self.nprocs = nprocs
        self.procs: list = []
        self.ctl = ctl
        self.transport = transport
        self.result_q = result_q
        self.board = board
        self.inbox = _ShmBox(inbox_bytes)
        #: Every rank's outbox slot has this size.
        self.slot_size = _grown(0, slot_bytes)
        self.outbox = _ShmBox(self.slot_size * nprocs)
        #: Largest report this op that did not fit its slot.
        self.slot_want = 0
        self.profile: _ShmBox | None = None
        register_for_cleanup(self)

    def healthy(self) -> bool:
        return all(p.is_alive() for p in self.procs)

    def slot(self, rank: int) -> tuple[str, int, int]:
        """``(outbox name, offset, size)`` of ``rank``'s report slot."""
        return (self.outbox.name, rank * self.slot_size, self.slot_size)

    def stage(self, parts: Sequence[memoryview],
              profile_capacity: int | None) -> tuple[tuple, tuple | None,
                                                     list[str]]:
        """Write an op's pickle parts into the inbox and, for a profiled
        op, clear the profile box, first growing the boxes that are too
        small.  Returns the inbox layout and the profile handle for the
        op command, and a description of each box grown.

        Invariant: a box is rewritten or replaced only here, after every
        rank has reported the previous op.  By then every message of that
        op has been received — so the queue transport's feeder threads
        have fully serialized any payload sliced from inbox views — and
        the host has copied every report out of the outbox.
        """
        grown = []

        def fit(kind: str, need: int) -> None:
            box = getattr(self, kind)
            old = box.size if box is not None else 0
            if need > old:
                setattr(self, kind, _ShmBox(_grown(old, need)))
                if box is not None:
                    box.destroy()
                grown.append(f"{kind} {old} -> {getattr(self, kind).size} bytes")

        if self.slot_want:
            self.slot_size = _grown(self.slot_size, self.slot_want)
            self.slot_want = 0
            fit("outbox", self.slot_size * self.nprocs)
        spans, end = _spans(parts)
        fit("inbox", end)
        _place(self.inbox.seg.buf, spans, parts)
        profile = None
        if profile_capacity is not None:
            fit("profile", _ProfileBuffers.nbytes(self.nprocs, profile_capacity))
            self.profile_buffers(profile_capacity).clear()
            profile = (self.profile.name, profile_capacity)
        return (self.inbox.name, spans), profile, grown

    def profile_buffers(self, capacity: int) -> _ProfileBuffers:
        return _ProfileBuffers(self.profile.seg.buf, self.nprocs, capacity)

    def read_report(self, rank: int, layout) -> tuple:
        """Decode ``rank``'s report, copied out of its slot (or in-band,
        in which case the slots grow before the next op)."""
        if layout[0] == "inband":
            _, need, blob = layout
            self.slot_want = max(self.slot_want, need)
            return pickle.loads(blob)
        _, lo, size = self.slot(rank)
        spans = layout[1]
        if not all(lo <= off and off + n <= lo + size for off, n in spans):
            raise ValueError(f"report spans {spans} leave the rank's slot")
        return _unpickle(self.outbox.seg.buf, spans, copy=True)

    def reap(self, join_grace: float, graceful: bool) -> None:
        # A graceful stop asks each rank over its control queue; a one-op
        # gang has none, so it is always killed.
        if graceful and self.ctl and self.healthy():
            for q in self.ctl:
                try:
                    q.put(("shutdown",))
                except (OSError, ValueError):
                    pass
            for p in self.procs:
                p.join(timeout=join_grace)
        for p in self.procs:
            if p.is_alive():
                # SIGKILL, never SIGTERM: a SIGSTOPped worker cannot run a
                # SIGTERM handler, but KILL reaps stopped processes too.
                p.kill()
        for p in self.procs:
            p.join(timeout=join_grace)
        self.board.destroy()
        for box in (self.inbox, self.outbox, self.profile):
            if box is not None:
                box.destroy()
        try:
            self.transport.host_destroy()
        except (OSError, ValueError):
            pass
        for q in (*self.ctl, self.result_q):
            q.close()

    def _emergency_cleanup(self) -> None:
        for p in self.procs:
            if p.is_alive():
                try:
                    p.kill()
                except (OSError, ValueError):
                    pass
        self.board.destroy()
        for box in (self.inbox, self.outbox, self.profile):
            if box is not None:
                box.destroy()


# --------------------------------------------------------------- chaos state
class _ChaosState:
    """Per-supervisor delivery bookkeeping over an immutable ChaosPlan."""

    def __init__(self, plan: ChaosPlan | None):
        self.plan = plan
        self._left = [ev.times for ev in plan.events] if plan is not None else []

    def take(self, op_index: int, rank: int, spawn: bool) -> tuple[ChaosEvent, ...]:
        """Consume (decrement) and return the events due for this attempt."""
        if self.plan is None:
            return ()
        out = []
        for i, ev in enumerate(self.plan.events):
            if self._left[i] <= 0:
                continue
            if ev.rank != rank or ev.op_index != op_index:
                continue
            if spawn != (ev.phase == "spawn"):
                continue
            self._left[i] -= 1
            out.append(ev)
        return tuple(out)


# ---------------------------------------------------------------- backend
class GangSupervisor(Backend):
    """A persistent, supervised, self-healing mp gang behind the Backend seam.

    Parameters
    ----------
    timeout:
        per-op wall deadline in seconds (``None`` = none; heartbeat and
        exit supervision still apply).
    retry:
        the :class:`RetryPolicy`; default retries twice with seeded
        jittered exponential backoff.
    on_exhaustion:
        ``"raise"`` (default) surfaces :class:`MpGangError` once the
        retry budget is spent; ``"fallback"`` degrades the op to
        :class:`~repro.runtime.sim.SimBackend` (results identical,
        ``time_domain="simulated"``).
    heartbeat_interval / heartbeat_timeout:
        workers beat every ``interval`` seconds; a pending op whose rank
        has not beaten for ``timeout`` seconds is classified
        ``heartbeat_miss``.  The default timeout is deliberately large —
        on a loaded single-core host a busy gang legitimately starves its
        heartbeat threads for whole seconds.
    spawn_timeout:
        seconds to wait for every worker's ready message after a fork.
    chaos:
        optional :class:`~repro.faults.chaos.ChaosPlan`; events are
        delivered at most ``times`` attempts each (see module docstring).
    join_grace:
        seconds to wait for exits before escalating to SIGKILL.
    transport:
        message transport (``"ring"`` / ``"queue"``), resolved by
        :func:`~repro.runtime.base.resolve_transport` — each gang epoch
        gets its own ring matrix, torn down on reap.

    A supervisor instance is a context manager; :meth:`shutdown` reaps
    the gang.  The process-wide instance behind ``backend="supervised"``
    (see :func:`default_supervisor`) is shut down atexit.
    """

    name = "supervised"
    time_domain = "wall"
    #: Whether the gang outlives an op (see :class:`_OneOpGang`).
    persistent = True

    def __init__(
        self,
        timeout: float | None = None,
        retry: RetryPolicy | None = None,
        on_exhaustion: str = "raise",
        heartbeat_interval: float = 0.25,
        heartbeat_timeout: float = 15.0,
        spawn_timeout: float = 60.0,
        chaos: ChaosPlan | None = None,
        join_grace: float = 5.0,
        transport: str | None = None,
    ):
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        if on_exhaustion not in ("raise", "fallback"):
            raise ValueError(
                f"on_exhaustion must be 'raise' or 'fallback', got {on_exhaustion!r}"
            )
        if heartbeat_interval <= 0 or heartbeat_timeout <= heartbeat_interval:
            raise ValueError(
                "need 0 < heartbeat_interval < heartbeat_timeout, got "
                f"{heartbeat_interval} / {heartbeat_timeout}"
            )
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.on_exhaustion = on_exhaustion
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.spawn_timeout = spawn_timeout
        self.join_grace = join_grace
        self.transport = resolve_transport(transport)
        self.stats = SupervisorStats()
        self._chaos = _ChaosState(chaos)
        self._gang: _Gang | None = None
        self._next_epoch = 1
        self._next_op_id = 0
        self._metrics = None  # registry in scope for the current op
        # One op at a time: a long-lived server submits from many asyncio
        # tasks (each in an executor thread), and the dispatch loop's
        # mutable state (gang, op ids, metrics-in-scope) is single-op by
        # design — the lock makes concurrent submissions queue instead of
        # interleaving.
        self._dispatch_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------ lifecycle
    def __enter__(self) -> "GangSupervisor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def shutdown(self) -> None:
        """Gracefully stop the gang (idempotent; the supervisor stays
        usable — the next op forks a fresh gang).  See :meth:`close` for
        the terminal variant a long-lived server should call."""
        with self._dispatch_lock:
            gang, self._gang = self._gang, None
        if gang is not None:
            gang.reap(self.join_grace, graceful=True)

    def close(self) -> None:
        """Shut the gang down *and* retire the supervisor: any later
        :meth:`run_spmd` raises :class:`RuntimeError` instead of silently
        re-forking (or, racing a teardown, hanging on a reaped gang)."""
        self._closed = True
        self.shutdown()

    @property
    def closed(self) -> bool:
        return self._closed

    def warm(self, nprocs: int) -> None:
        """Pre-fork the gang and wait for it, so the first op dispatches warm."""
        if self._closed:
            raise RuntimeError("GangSupervisor is closed; create a new one")
        with self._dispatch_lock:
            gang = self._live_gang(nprocs) or self._spawn(nprocs, self.stats.ops)
            try:
                self._wait(gang)
            except _OpFailure as failure:
                self._gang = None
                gang.reap(self.join_grace, graceful=False)
                raise MpGangError(failure.rank, failure.detail) from None

    # --------------------------------------------------------------- events
    def _event(self, kind: str, op_id: int | None = None,
               rank: int | None = None, detail: str = "") -> SupervisorEvent:
        ev = SupervisorEvent(kind=kind, t=monotonic(), op_id=op_id,
                             rank=rank, detail=detail)
        self.stats.events.append(ev)
        if len(self.stats.events) > 1000:
            del self.stats.events[:-1000]
        if self._metrics is not None:
            self._metrics.inc(f"supervisor.{kind}")
        return ev

    # ----------------------------------------------------------- gang build
    def _live_gang(self, nprocs: int) -> _Gang | None:
        """The current gang if it can take an op of ``nprocs`` ranks.

        Otherwise reap it — one warm gang at a time, so a different width
        rebuilds cold, as does a gang that died between ops (e.g. after a
        program error) — and return ``None``.
        """
        gang = self._gang
        if gang is None or (gang.nprocs == nprocs and gang.healthy()):
            return gang
        self._gang = None
        gang.reap(self.join_grace, graceful=True)
        return None

    def _spawn(self, nprocs: int, op_index: int,
               op: tuple | None = None) -> _Gang:
        """Fork a new gang epoch; ``op``, if given, rides the fork.

        ``op`` is ``(op_id, parts, chaos, profile, lifecycle)`` as for
        :meth:`_commands`; its pickle is written into the new inbox before
        the fork.  Returns as soon as the ranks are started; :meth:`_wait`
        awaits their readiness, together with the first op's results if
        any.
        """
        if "fork" not in _mp.get_all_start_methods():
            raise BackendError(
                f"{self.name} backend requires the 'fork' start method (POSIX)"
            )
        epoch = self._next_epoch
        self._next_epoch += 1
        mpctx = _mp.get_context("fork")
        # A one-op gang's inbox holds exactly its op; a persistent gang's
        # starts with room to spare.
        need = _spans(op[1])[1] if op is not None else 0
        gang = _Gang(
            epoch, nprocs,
            # A one-op gang's ranks exit after the op that rode the fork:
            # no control queues.
            [mpctx.SimpleQueue() for _ in range(nprocs)] if self.persistent else [],
            _make_transport(self.transport, mpctx, nprocs),
            mpctx.SimpleQueue(), _HeartbeatBoard(nprocs),
            max(need, _INBOX_BYTES) if self.persistent else need, _SLOT_BYTES,
        )
        try:
            tail = [] if self.persistent else [("shutdown",)]
            first = ([[cmd, *tail] for cmd in self._commands(gang, *op)]
                     if op is not None else None)
            gang.procs = [
                mpctx.Process(
                    target=_worker_main,
                    args=(r, nprocs, epoch, os.getpid(),
                          gang.ctl[r] if gang.ctl else None, gang.transport,
                          gang.result_q, gang.board, gang.inbox.seg,
                          gang.outbox.seg,
                          gang.profile.seg if gang.profile else None,
                          self.heartbeat_interval if self.persistent else None,
                          self._chaos.take(op_index, r, spawn=True),
                          first[r] if first is not None else ()),
                    daemon=True,
                    name=f"repro-mp-rank-{r}-e{epoch}",
                )
                for r in range(nprocs)
            ]
            self._event("gang_start", detail=f"epoch {epoch}, P={nprocs}")
            for p in gang.procs:
                p.start()
        except BaseException:
            gang.reap(self.join_grace, graceful=False)
            raise
        self._gang = gang
        self.stats.gang_epoch = epoch
        if self._metrics is not None:
            self._metrics.set("supervisor.gang_epoch", epoch)
        return gang

    def _commands(self, gang: _Gang, op_id: int, parts, chaos,
                  profile_capacity: int | None,
                  lifecycle: list[SupervisorEvent]) -> list[tuple]:
        """Stage an op in ``gang``'s boxes; return each rank's command."""
        inbox, profile, grown = gang.stage(parts, profile_capacity)
        for detail in grown:
            self.stats.box_grows += 1
            lifecycle.append(self._event("box_grow", op_id=op_id,
                                         detail=detail))
        return [("op", op_id, inbox, gang.slot(r), chaos[r], profile)
                for r in range(gang.nprocs)]

    # -------------------------------------------------------------- run_spmd
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
        if make_rank_args is not None and rank_args is not None:
            raise ValueError("pass make_rank_args or rank_args, not both")
        if rank_args is not None and len(rank_args) != nprocs:
            raise ValueError(
                f"rank_args has {len(rank_args)} entries for {nprocs} ranks"
            )
        if nprocs < 1:
            raise ValueError(f"need at least one processor, got {nprocs}")
        if step_budget is not None or time_budget is not None:
            raise BackendError(
                f"{self.name} backend: watchdog budgets count simulated "
                f"steps/seconds; give the backend a wall-clock timeout= instead"
            )
        if metrics is None:
            from ..obs.registry import current_global_metrics

            metrics = current_global_metrics()
        spec = spec if spec is not None else CM5
        with self._dispatch_lock:
            # Checked under the lock: a close() racing this submission
            # must not revive the gang.
            if self._closed:
                raise RuntimeError(
                    "GangSupervisor is closed; ops submitted after close() "
                    "are refused (create a new supervisor)"
                )
            return self._run_spmd_locked(
                program, nprocs, make_rank_args, rank_args, shared, spec,
                tracer, metrics, profile,
            )

    def _run_spmd_locked(
        self, program, nprocs, make_rank_args, rank_args, shared, spec,
        tracer, metrics, profile,
    ) -> RunResult:
        # supervisor.* counters describe a long-lived gang; a one-op gang
        # leaves the caller's registry as the op itself wrote it.
        self._metrics = metrics if self.persistent else None

        op_index = self.stats.ops
        op_id = self._next_op_id
        self._next_op_id += 1
        self.stats.ops += 1
        op = {
            "spec": spec,
            "program": _freeze_callable(program),
            "make_rank_args": _freeze_callable(make_rank_args),
            "rank_args": (tuple(tuple(a) for a in rank_args)
                          if rank_args is not None else None),
            "shared": {k: np.ascontiguousarray(v)
                       for k, v in (shared or {}).items()},
            "want_metrics": metrics is not None,
            "want_trace": tracer is not None,
        }
        try:
            # Pickled once per op, whatever the retries: every attempt
            # copies these parts into its gang's inbox.
            parts = _pickle_parts(op)
        except Exception as exc:
            raise BackendError(
                f"{self.name} backend cannot ship the op: it is not "
                f"picklable ({exc})") from exc
        lifecycle: list[SupervisorEvent] = []
        last_failure: _OpFailure | None = None
        try:
            delays = [None, *self.retry.delays()]
            for attempt, delay in enumerate(delays):
                if delay is not None:
                    lifecycle.append(self._event(
                        "backoff", op_id=op_id,
                        detail=f"sleep {delay * 1e3:.0f}ms before attempt "
                               f"{attempt + 1}/{len(delays)}"))
                    time.sleep(delay)
                try:
                    return self._run_once(
                        nprocs, op_index, op_id, attempt, parts,
                        tracer, metrics, profile, lifecycle,
                    )
                except _OpFailure as failure:
                    last_failure = failure
                    self.stats.failures[failure.kind] = (
                        self.stats.failures.get(failure.kind, 0) + 1)
                    lifecycle.append(self._event(
                        failure.kind, op_id=op_id, rank=failure.rank,
                        detail=failure.detail))
                    gang, self._gang = self._gang, None
                    if gang is not None:
                        gang.reap(self.join_grace, graceful=False)
                        self.stats.rebuilds += 1
                        lifecycle.append(self._event(
                            "rebuild", op_id=op_id,
                            detail=f"reaped epoch {gang.epoch} after "
                                   f"{failure.kind}"))
                    if failure.kind == "program_error":
                        # Deterministic program bugs don't heal by retry.
                        raise MpGangError(
                            failure.rank, "program raised",
                            child_traceback=failure.child_traceback,
                        ) from None
            # Retry budget exhausted.
            assert last_failure is not None
            if self.on_exhaustion == "fallback":
                self.stats.fallbacks += 1
                self._event(
                    "fallback", op_id=op_id, rank=last_failure.rank,
                    detail=f"degrading to SimBackend after {len(delays)} "
                           f"attempts; last: {last_failure.kind}: "
                           f"{last_failure.detail}")
                from .sim import SimBackend

                return SimBackend().run_spmd(
                    program, nprocs,
                    make_rank_args=make_rank_args, rank_args=rank_args,
                    shared=shared, spec=spec, tracer=tracer, metrics=metrics,
                    profile=profile,
                )
            detail = last_failure.detail
            if self.retry.max_retries > 0:
                detail = (f"retry budget exhausted after {len(delays)} "
                          f"attempts; last failure: {last_failure.kind}: "
                          f"{detail}")
            raise MpGangError(
                last_failure.rank, detail,
                child_traceback=last_failure.child_traceback,
            )
        finally:
            self._metrics = None

    # -------------------------------------------------------------- one try
    def _run_once(
        self, nprocs: int, op_index: int, op_id: int, attempt: int,
        parts, tracer, metrics, profile, lifecycle: list[SupervisorEvent],
    ) -> RunResult:
        t_attempt0 = monotonic()
        chaos = [self._chaos.take(op_index, r, spawn=False)
                 for r in range(nprocs)]
        capacity = profile.ring_capacity if profile is not None else None
        try:
            gang = self._live_gang(nprocs)
            if gang is not None:
                self.stats.warm_ops += 1
                cmds = self._commands(gang, op_id, parts, chaos, capacity,
                                      lifecycle)
                t_dispatch0 = monotonic()
                for r in range(nprocs):
                    gang.ctl[r].put(cmds[r])
            else:
                self.stats.cold_ops += 1
                t_dispatch0 = monotonic()
                gang = self._spawn(nprocs, op_index, (
                    op_id, parts, chaos, capacity, lifecycle))
            t_dispatched = monotonic()
            if attempt > 0:
                self.stats.retries += 1
                lifecycle.append(self._event(
                    "retry", op_id=op_id,
                    detail=f"attempt {attempt + 1} on epoch {gang.epoch}"))
            reports = self._wait(gang, op_id)
        except BaseException as exc:
            if not isinstance(exc, _OpFailure) and self._gang is not None:
                # Interrupted mid-op (a KeyboardInterrupt, say): ranks may
                # still be using the inbox the next op would rewrite.
                gang, self._gang = self._gang, None
                gang.reap(self.join_grace, graceful=False)
            raise
        t_collected = monotonic()
        prof_data = (gang.profile_buffers(capacity).copy_out()
                     if profile is not None else None)
        if not self.persistent:
            self._gang = None
            gang.reap(self.join_grace, graceful=False)

        results = []
        stats = []
        for r in range(nprocs):
            result, snapshot, child_metrics, child_events = reports[r]
            results.append(result)
            stats.append(stats_from_snapshot(snapshot))
            if metrics is not None and child_metrics is not None:
                metrics.merge(child_metrics)
            if tracer is not None and child_events:
                tracer.events.extend(child_events)
        run = RunResult(results=results, stats=stats, time_domain=self.time_domain)
        lifecycle.append(self._event(
            "op_ok", op_id=op_id,
            detail=f"attempt {attempt + 1}, epoch {gang.epoch}"))
        if prof_data is not None:
            prof = _build_mp_profile(
                nprocs, prof_data, run,
                t_attempt0, t_dispatch0, t_dispatched, t_collected, monotonic(),
                transport=self.transport,
            )
            prof.backend = self.name
            if self.persistent:
                # Lifecycle spans: clamp into the final attempt's window
                # (the Chrome-trace schema refuses negative timestamps; a
                # failed earlier attempt predates this attempt's origin).
                for ev in lifecycle:
                    t = max(ev.t - t_attempt0, 0.0)
                    prof.gang_spans.append((f"supervisor.{ev.kind}", t, t))
            profile.profile = prof
        return run

    # ------------------------------------------------------------- wait loop
    def _wait(self, gang: _Gang, op_id: int | None = None) -> dict[int, tuple]:
        """The one host wait loop: until every rank of ``gang`` is ready
        (has beaten the board) and, for an op, has reported its result.

        One ``connection.wait`` multiplexes the result pipe and every
        owing rank's exit sentinel, woken at least every heartbeat
        interval to read the board and the deadlines — no polling loop
        burning host CPU, and a silent death wakes it at once.  Failures
        are classified: death before ready is ``spawn_failure``, after it
        ``rank_death``; a stale heartbeat on a rank owing a result is
        ``heartbeat_miss``; an expired op deadline ``op_timeout``, an
        expired spawn deadline ``spawn_failure``; a malformed message
        ``poisoned_result``; a rank that raised ``program_error``.
        """
        pending = set(range(gang.nprocs)) if op_id is not None else set()
        op_deadline = Deadline(self.timeout if op_id is not None else None)
        spawn_deadline = Deadline(self.spawn_timeout)
        reports: dict[int, tuple] = {}
        while pending or gang.board.unready():
            if gang.result_q.empty():
                msg = self._idle(gang, pending, op_id, op_deadline, spawn_deadline)
                if msg is None:
                    continue
            else:
                try:
                    msg = gang.result_q.get()
                except Exception as exc:
                    # A rank killed mid-write can corrupt the stream; treat
                    # it like a poisoned message from an unknown rank.
                    raise _OpFailure(
                        "poisoned_result", None,
                        f"result stream corrupted: {exc!r}") from None
            kind, rank, report = self._classify(gang, op_id, msg)
            if kind == "ok":
                reports[rank] = report
                pending.discard(rank)
            elif kind == "error":
                raise _OpFailure(
                    "program_error", rank, "program raised",
                    child_traceback=report)
            elif kind == "stale":
                self.stats.stale_dropped += 1
        return reports

    def _idle(self, gang: _Gang, pending: set[int], op_id: int | None,
              op_deadline: Deadline, spawn_deadline: Deadline):
        """Nothing to read: raise on a detected failure, else block until
        something may have changed.  Returns a message that arrived
        during a dead rank's grace read, or ``None``."""
        unready = gang.board.unready()
        owing = sorted(unready | pending)
        dead = [r for r in owing if gang.procs[r].exitcode is not None]
        if dead:
            # Grace read: the rank may have posted just before dying.
            try:
                if gang.result_q._reader.poll(0.5):
                    return gang.result_q.get()
            except Exception:
                pass
            r = dead[0]
            raise _OpFailure(
                "spawn_failure" if r in unready else "rank_death", r,
                f"rank {r} exited with code {gang.procs[r].exitcode} "
                f"without reporting a result")
        # A one-op gang runs no heartbeat; its op deadline bounds a hang.
        beating = pending - unready if self.persistent else set()
        ages = gang.board.ages()
        for r in sorted(beating):
            if ages[r] > self.heartbeat_timeout and gang.procs[r].is_alive():
                raise _OpFailure(
                    "heartbeat_miss", r,
                    f"rank {r} heartbeat stale for {ages[r]:.2f}s "
                    f"(> {self.heartbeat_timeout:g}s): hung or stopped")
        if pending and op_deadline.expired():
            raise _OpFailure(
                "op_timeout", None, op_deadline.describe(f"op {op_id}", pending))
        wake = op_deadline.remaining(cap=self.heartbeat_interval)
        if unready:
            if spawn_deadline.expired():
                raise _OpFailure(
                    "spawn_failure", min(unready),
                    f"gang not ready within {self.spawn_timeout:g}s "
                    f"(ranks still pending: {sorted(unready)})")
            wake = min(wake, spawn_deadline.remaining(cap=wake))
        sentinels = [gang.procs[r].sentinel for r in owing]
        _conn_wait([gang.result_q._reader, *sentinels], timeout=max(wake, 0.01))
        return None

    @staticmethod
    def _classify(gang: _Gang, op_id: int | None, msg):
        """Sort one result message into ready / ok / error / stale; fail
        the op as ``poisoned_result`` on a malformed one."""
        if (isinstance(msg, tuple) and len(msg) >= 3
                and isinstance(msg[1], int) and 0 <= msg[1] < gang.nprocs):
            kind, rank, epoch = msg[:3]
            if epoch != gang.epoch:
                return ("stale", None, None)
            if kind == "ready" and len(msg) == 3:
                return ("ready", rank, None)
            if kind in ("ok", "error") and len(msg) == 5:
                if msg[3] != op_id:
                    return ("stale", None, None)
                if kind == "error":
                    return ("error", rank, msg[4])
                try:
                    return ("ok", rank, gang.read_report(rank, msg[4]))
                except Exception as exc:
                    raise _OpFailure(
                        "poisoned_result", rank,
                        f"undecodable result payload: {exc!r}") from None
        rank = msg[1] if isinstance(msg, tuple) and len(msg) > 1 \
            and isinstance(msg[1], int) else None
        raise _OpFailure(
            "poisoned_result", rank, f"malformed result message: {msg!r}")


class _OneOpGang(GangSupervisor):
    """:class:`~repro.runtime.mp.MpBackend`'s runtime: a gang for one op.

    The op rides the fork, followed by ``shutdown``, so the ranks need no
    control queue and exit as soon as they have reported; the host reaps
    the gang inside the op, so a profile's ``reap`` span measures the
    real teardown.  The ranks run no heartbeat thread (a thread started
    right after the fork costs every cold op a CPU wait; the op deadline
    bounds a hang instead), and lifecycle spans and ``supervisor.*``
    counters are left out: they describe a long-lived supervisor.
    """

    name = "mp"
    persistent = False


# ------------------------------------------------------- default instance
_DEFAULT: GangSupervisor | None = None


def default_supervisor() -> GangSupervisor:
    """The process-wide supervisor behind ``backend="supervised"``.

    One shared instance means every string-name caller reuses the same
    warm gang; it is shut down atexit (and by
    :func:`shutdown_default_supervisor`, which tests use to assert
    leak-freedom deterministically).
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = GangSupervisor()
        atexit.register(shutdown_default_supervisor)
    return _DEFAULT


def shutdown_default_supervisor() -> None:
    """Reap the default supervisor's gang (idempotent)."""
    global _DEFAULT
    sup, _DEFAULT = _DEFAULT, None
    if sup is not None:
        sup.shutdown()
