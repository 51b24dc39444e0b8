"""Request coalescing: compatible requests within a window become one gang.

A request whose :meth:`~repro.serve.protocol.Request.batch_key` is set
(same op, mask, geometry, scheme) dispatches at once when the engine is
idle, i.e. no batch is in flight or waiting for a slot: nothing can join
it, so a wait would only add latency.  While the engine is busy it is
held, grouped with others of its key, and the group flushes at the
first of: ``max_batch`` members, ``max_delay`` seconds since its first
member arrived, or the engine going idle.  So a request waits only while
another batch is running, and never longer than ``max_delay``.  A
batchable request never goes solo while the engine is busy: under load,
solo dispatch would queue one run per request behind the busy engine,
where holding lets the backlog leave in full groups.  Requests with no
batch key (unpack, redistribution, VECTOR pads) dispatch solo at once —
coalescing never delays work that cannot coalesce.

Each flush acquires the admission controller's max-inflight-batches
semaphore, then runs the engine in the server's thread pool; responses
resolve per-request futures the connection handlers await.  All batcher
state is touched only from the event-loop thread.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field as dc_field
from time import perf_counter
from typing import Callable, Sequence

from .protocol import Request, error_body

__all__ = ["Batcher", "PendingRequest"]


@dataclass
class PendingRequest:
    """One admitted request travelling through the batcher."""

    req: Request
    future: asyncio.Future = dc_field(repr=False)
    t_enqueue: float = 0.0
    t_exec_start: float = 0.0
    t_exec_end: float = 0.0
    batch_size: int = 1
    coalesced: bool = False


class Batcher:
    """Window/size-bounded coalescing in front of a blocking engine."""

    def __init__(
        self,
        execute: Callable[[Sequence[Request]], list[dict]],
        executor,
        semaphore: asyncio.Semaphore,
        max_delay: float = 0.002,
        max_batch: int = 8,
        metrics=None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay}")
        self._execute = execute
        self._executor = executor
        self._semaphore = semaphore
        self.max_delay = max_delay
        self.max_batch = max_batch
        self._metrics = metrics
        self._groups: dict[tuple, list[PendingRequest]] = {}
        self._timers: dict[tuple, asyncio.TimerHandle] = {}
        self._tasks: set[asyncio.Task] = set()
        self.batches = 0
        self.coalesced_batches = 0

    # ---------------------------------------------------------------- intake
    def submit(self, preq: PendingRequest) -> None:
        """Enqueue one admitted request (event-loop thread)."""
        preq.t_enqueue = perf_counter()
        key = preq.req.batch_key()
        if (key is None or self.max_batch <= 1 or self.max_delay == 0
                or not self._tasks):
            self._launch([preq])
            return
        group = self._groups.setdefault(key, [])
        group.append(preq)
        if len(group) >= self.max_batch:
            self._flush(key)
        elif len(group) == 1:
            loop = asyncio.get_running_loop()
            self._timers[key] = loop.call_later(
                self.max_delay, self._flush, key
            )

    def _flush(self, key: tuple) -> None:
        group = self._groups.pop(key, None)
        timer = self._timers.pop(key, None)
        if timer is not None:
            timer.cancel()
        if group:
            self._launch(group)

    def _launch(self, group: list[PendingRequest]) -> None:
        for p in group:
            p.batch_size = len(group)
            p.coalesced = len(group) > 1
        task = asyncio.get_running_loop().create_task(self._run(group))
        self._tasks.add(task)
        task.add_done_callback(self._on_done)

    def _on_done(self, task: asyncio.Task) -> None:
        self._tasks.discard(task)
        if not self._tasks:
            # Engine idle: a held group has nothing left to wait for.
            for key in list(self._groups):
                self._flush(key)

    # ------------------------------------------------------------- execution
    async def _run(self, group: list[PendingRequest]) -> None:
        async with self._semaphore:
            t0 = perf_counter()
            for p in group:
                p.t_exec_start = t0
            loop = asyncio.get_running_loop()
            try:
                bodies = await loop.run_in_executor(
                    self._executor,
                    self._execute,
                    [p.req for p in group],
                )
            except Exception as exc:  # engine returns error bodies itself;
                # this catches executor shutdown and the like.
                bodies = [
                    error_body(p.req.id, "internal", str(exc)) for p in group
                ]
            t1 = perf_counter()
            self.batches += 1
            if len(group) > 1:
                self.coalesced_batches += 1
            if self._metrics is not None:
                self._metrics.inc("serve.batches")
                self._metrics.observe("serve.batch_size", len(group))
                self._metrics.observe("serve.execute_seconds", t1 - t0)
            for p, body in zip(group, bodies):
                p.t_exec_end = t1
                if not p.future.done():
                    p.future.set_result(body)

    # ----------------------------------------------------------------- drain
    async def drain(self) -> None:
        """Flush every held group and wait for all inflight batches."""
        for key in list(self._groups):
            self._flush(key)
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
