"""Batcher: idle dispatch, window coalescing, compatibility keying, size
caps, errors.

The engine is faked with a recorder so these tests pin the *grouping*
decisions — which requests ran together — without running the simulator.
A batchable request into an idle batcher dispatches at once, so tests
about coalescing first make the engine busy with a solo-only UNPACK.
All tests drive the event loop with ``asyncio.run`` (no pytest-asyncio
in this environment).
"""

import asyncio
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.serve.batcher import Batcher, PendingRequest
from repro.serve.protocol import Request

MASK_A = np.arange(16) % 2 == 0
MASK_B = np.arange(16) % 3 == 0


def _req(rid, op="pack", fingerprint="fa", mask=MASK_A, **over):
    kw = dict(
        id=rid, op=op, grid=(2,), block=None, scheme="cms",
        mask=mask, array=np.arange(16, dtype=float),
        fingerprint=fingerprint,
    )
    kw.update(over)
    return Request(**kw)


def _unpack(rid="u"):
    """A solo-only request: submitted first, it makes the engine busy."""
    k = int(MASK_A.sum())
    return _req(rid, op="unpack", array=None,
                vector=np.arange(k, dtype=float), field_array=np.zeros(16))


class _Recorder:
    """Stand-in engine: records each group's ids, returns ok bodies."""

    def __init__(self, fail=False):
        self.groups = []
        self.fail = fail

    def __call__(self, reqs):
        self.groups.append([r.id for r in reqs])
        if self.fail:
            raise RuntimeError("engine exploded")
        return [{"id": r.id, "ok": True} for r in reqs]


def _drive(submits, *, max_delay=0.01, max_batch=8, fail=False):
    """Submit PendingRequests, drain, return (recorder, resolved bodies)."""
    rec = _Recorder(fail=fail)

    async def main():
        with ThreadPoolExecutor(max_workers=2) as pool:
            b = Batcher(rec, pool, asyncio.Semaphore(2),
                        max_delay=max_delay, max_batch=max_batch)
            preqs = []
            for req in submits:
                p = PendingRequest(
                    req=req, future=asyncio.get_running_loop().create_future()
                )
                b.submit(p)
                preqs.append(p)
            await b.drain()
            return [p.future.result() for p in preqs], preqs

    bodies, preqs = asyncio.run(main())
    return rec, bodies, preqs


def test_compatible_requests_coalesce_into_one_group():
    rec, bodies, preqs = _drive(
        [_unpack(), _req("a"), _req("b"), _req("c")])
    assert sorted(rec.groups) == [["a", "b", "c"], ["u"]]
    assert all(b["ok"] for b in bodies)
    assert all(p.batch_size == 3 and p.coalesced for p in preqs[1:])


def test_incompatible_keys_form_separate_groups():
    rec, _, _ = _drive([
        _unpack(), _req("a"), _req("b", fingerprint="fb", mask=MASK_B),
        _req("c"),
    ])
    assert sorted(map(sorted, rec.groups)) == [["a", "c"], ["b"], ["u"]]


def test_max_batch_flushes_immediately():
    # A long window that would stall the test if the size cap didn't fire.
    rec, _, preqs = _drive(
        [_unpack()] + [_req(f"r{i}") for i in range(5)],
        max_delay=30.0, max_batch=4,
    )
    # Group of 4 flushed at the cap; the drain flushed the leftover.
    assert sorted(map(len, rec.groups)) == [1, 1, 4]
    assert [p.batch_size for p in preqs[1:]] == [4, 4, 4, 4, 1]


def test_solo_key_dispatches_without_waiting():
    un = _unpack()
    assert un.batch_key() is None
    rec, _, preqs = _drive([un, _req("p")], max_delay=0.005)
    assert sorted(map(sorted, rec.groups)) == [["p"], ["u"]]
    assert not preqs[0].coalesced


def test_max_batch_one_disables_coalescing():
    rec, _, _ = _drive([_req("a"), _req("b")], max_batch=1)
    assert sorted(map(sorted, rec.groups)) == [["a"], ["b"]]


class _Gate(_Recorder):
    """Recorder whose solo-only UNPACK ``u`` blocks until released, so the
    engine stays busy for as long as a test needs."""

    def __init__(self):
        super().__init__()
        self.release = threading.Event()
        self.called_at = {}

    def __call__(self, reqs):
        now = time.perf_counter()
        for r in reqs:
            self.called_at[r.id] = now
        if reqs[0].id == "u":
            self.release.wait(timeout=10.0)
        return super().__call__(reqs)


async def _submit(b, req):
    p = PendingRequest(req=req,
                       future=asyncio.get_running_loop().create_future())
    b.submit(p)
    return p


def _gated(test, *, max_delay, max_batch=8):
    """Run ``await test(batcher, gate)`` with the engine held busy by a
    blocked UNPACK on one of two execution slots; release and drain after."""
    gate = _Gate()

    async def main():
        with ThreadPoolExecutor(max_workers=2) as pool:
            b = Batcher(gate, pool, asyncio.Semaphore(2),
                        max_delay=max_delay, max_batch=max_batch)
            blocker = await _submit(b, _unpack())
            try:
                return await test(b, gate)
            finally:
                gate.release.set()
                await b.drain()
                assert blocker.future.result()["ok"]

    return asyncio.run(main()), gate


def test_idle_arrival_dispatches_without_waiting():
    rec = _Recorder()

    async def main():
        with ThreadPoolExecutor(max_workers=1) as pool:
            # A window long enough to stall the test if the request waited.
            b = Batcher(rec, pool, asyncio.Semaphore(1),
                        max_delay=30.0, max_batch=8)
            p = await _submit(b, _req("only"))
            assert b._timers == {}, "an idle arrival must not arm a window"
            body = await asyncio.wait_for(p.future, timeout=5.0)
            return body, p

    body, p = asyncio.run(main())
    assert body["ok"]
    assert rec.groups == [["only"]]
    assert p.batch_size == 1 and not p.coalesced


def test_engine_going_idle_flushes_held_groups():
    async def test(b, gate):
        held = [await _submit(b, _req("a")),
                await _submit(b, _req("b", fingerprint="fb", mask=MASK_B))]
        gate.release.set()
        # The window is far longer than the test: only the blocker's
        # completion can have flushed the held groups.
        await asyncio.wait_for(
            asyncio.gather(*(p.future for p in held)), timeout=5.0)
        return held

    held, gate = _gated(test, max_delay=30.0)
    assert gate.groups[0] == ["u"]
    assert sorted(gate.groups[1:]) == [["a"], ["b"]]
    assert all(p.batch_size == 1 for p in held)


def test_window_expiry_flushes_partial_group():
    async def test(b, gate):
        p = await _submit(b, _req("only"))
        # Wait out the window without calling drain, engine still busy:
        # the timer alone must flush the group.
        return await asyncio.wait_for(p.future, timeout=5.0)

    body, gate = _gated(test, max_delay=0.02)
    assert body["ok"]
    assert gate.groups == [["only"], ["u"]]


def test_burst_into_busy_engine_fills_to_max_batch():
    async def test(b, gate):
        ps = [await _submit(b, _req(f"r{i}")) for i in range(16)]
        # The window is far longer than the test: only the size cap can
        # have flushed these while the blocker still holds the engine.
        await asyncio.wait_for(
            asyncio.gather(*(p.future for p in ps)), timeout=5.0)
        assert not gate.release.is_set()
        return ps

    ps, gate = _gated(test, max_delay=30.0, max_batch=8)
    assert [len(g) for g in gate.groups[:2]] == [8, 8]
    assert all(p.batch_size == 8 and p.coalesced for p in ps)


def test_no_held_request_waits_longer_than_max_delay():
    max_delay, gap, slack = 0.3, 0.1, 0.3

    async def test(b, gate):
        ps = []
        for i in range(6):  # arrivals span longer than one window
            ps.append(await _submit(b, _req(f"r{i}")))
            await asyncio.sleep(gap)
        await asyncio.wait_for(
            asyncio.gather(*(p.future for p in ps)), timeout=10.0)
        return ps

    ps, gate = _gated(test, max_delay=max_delay)
    # A window re-armed by each joiner would hold r0 for ~0.8 s.
    for p in ps:
        assert gate.called_at[p.req.id] - p.t_enqueue <= max_delay + slack
    assert len(gate.groups) >= 3  # two windows, plus the blocker


def test_overload_coalesces_instead_of_going_solo():
    """200 same-key requests against a slow engine leave in full groups:
    going solo while the engine is busy would queue 200 runs."""
    n, max_batch = 200, 8

    def slow_engine(reqs):
        time.sleep(0.05)
        return rec(reqs)

    rec = _Recorder()

    async def main():
        with ThreadPoolExecutor(max_workers=2) as pool:
            b = Batcher(slow_engine, pool, asyncio.Semaphore(2),
                        max_delay=30.0, max_batch=max_batch)
            for i in range(n):
                await _submit(b, _req(f"r{i}"))
                await asyncio.sleep(0)  # let the first batch start
            await b.drain()

    asyncio.run(main())
    assert sum(map(len, rec.groups)) == n
    assert len(rec.groups) <= math.ceil(n / max_batch) + 1


def test_engine_exception_resolves_every_future_with_internal_error():
    class _Boom:
        def __call__(self, reqs):
            raise RuntimeError("kaput")

    async def main():
        pool = ThreadPoolExecutor(max_workers=1)
        # Simulate executor-level failure: shut the pool so run_in_executor
        # itself raises.
        pool.shutdown(wait=True)
        b = Batcher(_Boom(), pool, asyncio.Semaphore(1),
                    max_delay=0.001, max_batch=4)
        ps = [
            PendingRequest(
                req=_req(f"r{i}"),
                future=asyncio.get_running_loop().create_future(),
            )
            for i in range(2)
        ]
        for p in ps:
            b.submit(p)
        await b.drain()
        return [p.future.result() for p in ps]

    bodies = asyncio.run(main())
    for body in bodies:
        assert body["ok"] is False
        assert body["error"]["code"] == "internal"


def test_semaphore_bounds_concurrent_batches():
    inflight = {"now": 0, "peak": 0}
    import threading

    lock = threading.Lock()

    def slow_engine(reqs):
        with lock:
            inflight["now"] += 1
            inflight["peak"] = max(inflight["peak"], inflight["now"])
        import time

        time.sleep(0.02)
        with lock:
            inflight["now"] -= 1
        return [{"id": r.id, "ok": True} for r in reqs]

    async def main():
        with ThreadPoolExecutor(max_workers=4) as pool:
            b = Batcher(slow_engine, pool, asyncio.Semaphore(1),
                        max_delay=0.0, max_batch=1)
            ps = []
            for i in range(4):
                p = PendingRequest(
                    req=_req(f"r{i}"),
                    future=asyncio.get_running_loop().create_future(),
                )
                b.submit(p)
                ps.append(p)
            await b.drain()
            assert all(p.future.result()["ok"] for p in ps)

    asyncio.run(main())
    assert inflight["peak"] == 1


def test_validation():
    with pytest.raises(ValueError):
        Batcher(lambda r: [], None, None, max_batch=0)
    with pytest.raises(ValueError):
        Batcher(lambda r: [], None, None, max_delay=-1.0)
