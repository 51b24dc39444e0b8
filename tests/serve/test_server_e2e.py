"""End-to-end serve tests over real sockets.

The headline contract: responses from a coalesced batch are
**bit-identical** to the same requests served solo — coalescing is a
throughput optimization, never an observable semantic change.  Checked
on the simulator backend and on real forked processes (mp).
"""

import asyncio
import json
import time

import numpy as np
import pytest

from repro.serial.reference import mask_ranks, pack_reference, unpack_reference
from repro.serve import PackUnpackServer, ServeConfig, encode_array
from repro.serve.protocol import decode_array

N = 64
RNG = np.random.default_rng(42)
MASK = RNG.random(N) < 0.4
ARRAYS = [RNG.standard_normal(N) for _ in range(4)]


async def _client(host, port, payloads):
    """Pipelined in-loop client: one write burst, responses by id."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(b"".join(
        (json.dumps(p) + "\n").encode() for p in payloads
    ))
    await writer.drain()
    by_id = {}
    for _ in payloads:
        line = await asyncio.wait_for(reader.readline(), timeout=60.0)
        assert line, "server closed early"
        body = json.loads(line)
        by_id[body["id"]] = body
    writer.close()
    await writer.wait_closed()
    return [by_id[p["id"]] for p in payloads]


def _pack_payloads(arrays, mask=MASK, **options):
    return [
        {"id": f"r{k}", "op": "pack", "grid": [2], "scheme": "cms",
         "mask": encode_array(mask), "array": encode_array(a),
         "options": options}
        for k, a in enumerate(arrays)
    ]


def _serve(cfg, fn):
    """Run ``await fn(server)`` against a started server, then drain."""

    async def main():
        srv = PackUnpackServer(cfg)
        await srv.start()
        try:
            return await fn(srv)
        finally:
            await srv.drain()

    return asyncio.run(main())


# ------------------------------------------------------------- correctness
def test_roundtrip_ops_against_reference():
    k = int(MASK.sum())
    vec = np.arange(k, dtype=np.float64)
    field = np.full(N, -1.0)
    payloads = _pack_payloads(ARRAYS[:2]) + [
        {"id": "un", "op": "unpack", "grid": [2], "scheme": "css",
         "mask": encode_array(MASK), "vector": encode_array(vec),
         "field": encode_array(field)},
        {"id": "rk", "op": "ranking", "grid": [2], "scheme": "css",
         "mask": encode_array(MASK)},
    ]

    async def fn(srv):
        return await _client(srv.host, srv.port, payloads)

    bodies = _serve(ServeConfig(), fn)
    for body, arr in zip(bodies[:2], ARRAYS[:2]):
        assert body["ok"], body
        np.testing.assert_array_equal(
            decode_array(body["result"]), pack_reference(arr, MASK))
        assert body["size"] == k
    np.testing.assert_array_equal(
        decode_array(bodies[2]["result"]),
        unpack_reference(vec, MASK, field))
    np.testing.assert_array_equal(
        decode_array(bodies[3]["result"]), mask_ranks(MASK))


def test_bad_request_line_keeps_connection_serving():
    async def fn(srv):
        reader, writer = await asyncio.open_connection(srv.host, srv.port)
        good = _pack_payloads(ARRAYS[:1])[0]
        writer.write(b'{"id": "bad", "op": "pack"}\n')
        writer.write((json.dumps(good) + "\n").encode())
        await writer.drain()
        bodies = [json.loads(await reader.readline()) for _ in range(2)]
        writer.close()
        await writer.wait_closed()
        return {b["id"]: b for b in bodies}

    by_id = _serve(ServeConfig(), fn)
    assert by_id["bad"]["error"]["code"] == "bad_request"
    assert by_id["r0"]["ok"]


def _unpack_payload(rid="un"):
    k = int(MASK.sum())
    return {"id": rid, "op": "unpack", "grid": [2], "scheme": "css",
            "mask": encode_array(MASK),
            "vector": encode_array(np.arange(k, dtype=np.float64)),
            "field": encode_array(np.full(N, -1.0))}


def test_coalesced_requests_report_their_batch():
    # A pack into an idle server dispatches at once; a slow UNPACK sent
    # first keeps the engine busy, so the packs behind it coalesce.
    async def fn(srv):
        srv.engine.execute = _slow(srv.engine, 0.2)
        srv.batcher._execute = srv.engine.execute
        return await _client(
            srv.host, srv.port, [_unpack_payload()] + _pack_payloads(ARRAYS))

    bodies = _serve(
        ServeConfig(max_delay=0.05, max_batch=len(ARRAYS)), fn)
    assert bodies[0]["batch"] == {"size": 1, "coalesced": False}
    for body in bodies[1:]:
        assert body["batch"] == {"size": len(ARRAYS), "coalesced": True}
        assert set(body["timing"]) == {"queue_ms", "execute_ms", "total_ms"}


def test_idle_server_dispatches_a_lone_pack_at_once():
    async def fn(srv):
        return await _client(srv.host, srv.port, _pack_payloads(ARRAYS[:1]))

    # A window far longer than the test's patience: only an immediate
    # dispatch answers in time.
    (body,) = _serve(ServeConfig(max_delay=30.0, max_batch=8), fn)
    assert body["ok"] and body["batch"] == {"size": 1, "coalesced": False}
    assert body["timing"]["queue_ms"] < 1000.0


def test_loadgen_reads_responses_over_64_kib():
    """asyncio's default 64 KiB line limit must not cut large replies."""
    from repro.serve import LoadgenConfig
    from repro.serve.loadgen import run_loadgen_async

    async def fn(srv):
        cfg = LoadgenConfig(port=srv.port, rate=20.0, duration=0.25,
                            n=16384, ops=("unpack",), connections=1,
                            timeout=20.0)
        return await run_loadgen_async(cfg)

    rep = _serve(ServeConfig(), fn)
    # 16384 float64 = 128 KiB raw, ~175 KB of base64 per response.
    assert rep["sent"] == 5
    assert rep["ok"] == rep["sent"] and rep["errors"] == 0, rep


# ------------------------------------------------------------ bit identity
def _serve_and_collect(backend, max_batch, max_delay):
    payloads = _pack_payloads(ARRAYS, validate=False)

    async def fn(srv):
        return await _client(srv.host, srv.port, payloads)

    return _serve(
        ServeConfig(backend=backend, max_batch=max_batch,
                    max_delay=max_delay), fn)


@pytest.mark.parametrize("backend", ["sim", pytest.param("mp")])
def test_coalesced_bit_identical_to_solo(backend):
    coalesced = _serve_and_collect(backend, max_batch=len(ARRAYS),
                                   max_delay=0.1)
    solo = _serve_and_collect(backend, max_batch=1, max_delay=0.0)

    assert any(b["batch"]["coalesced"] for b in coalesced)
    assert not any(b["batch"]["coalesced"] for b in solo)
    for bc, bs, arr in zip(coalesced, solo, ARRAYS):
        assert bc["ok"] and bs["ok"]
        # Byte-for-byte identical payloads, both equal to the reference.
        assert bc["result"]["data"] == bs["result"]["data"]
        assert bc["result"]["dtype"] == bs["result"]["dtype"]
        np.testing.assert_array_equal(
            decode_array(bc["result"]), pack_reference(arr, MASK))


# --------------------------------------------------- backpressure and drain
def _slow(engine, delay):
    real = engine.execute

    def execute(reqs):
        time.sleep(delay)
        return real(reqs)

    return execute


def test_overload_sheds_with_structured_error():
    async def fn(srv):
        srv.engine.execute = _slow(srv.engine, 0.1)
        srv.batcher._execute = srv.engine.execute
        return await _client(
            srv.host, srv.port,
            _pack_payloads([RNG.standard_normal(N) for _ in range(8)]))

    bodies = _serve(
        ServeConfig(max_queue=2, max_inflight=1, max_batch=1), fn)
    shed = [b for b in bodies if not b["ok"]]
    ok = [b for b in bodies if b["ok"]]
    assert shed, "expected at least one shed under a full queue"
    assert all(b["error"]["code"] == "overloaded" for b in shed)
    # Admitted requests still complete correctly under overload.
    assert ok and all(b["size"] == int(MASK.sum()) for b in ok)


def test_drain_finishes_inflight_and_refuses_new():
    async def fn(srv):
        srv.engine.execute = _slow(srv.engine, 0.15)
        srv.batcher._execute = srv.engine.execute
        reader, writer = await asyncio.open_connection(srv.host, srv.port)
        p1, p2 = _pack_payloads(ARRAYS[:2])
        writer.write((json.dumps(p1) + "\n").encode())
        await writer.drain()
        await asyncio.sleep(0.03)  # p1 admitted and executing
        srv.admission.begin_drain()
        writer.write((json.dumps(p2) + "\n").encode())
        await writer.drain()
        bodies = {}
        for _ in range(2):
            body = json.loads(await reader.readline())
            bodies[body["id"]] = body
        writer.close()
        await writer.wait_closed()
        return bodies

    bodies = _serve(ServeConfig(max_batch=1), fn)
    assert bodies["r0"]["ok"], "in-flight request must finish during drain"
    assert bodies["r1"]["error"]["code"] == "shutting_down"


def test_drain_is_idempotent_and_closes_listener():
    async def fn(srv):
        await srv.drain()
        await srv.drain()  # second call is a no-op
        with pytest.raises(OSError):
            await asyncio.open_connection(srv.host, srv.port)
        return True

    assert _serve(ServeConfig(), fn)


# ------------------------------------------------------ supervised backend
def test_supervised_server_uses_one_warm_gang_and_closes_it():
    cfg = ServeConfig(backend="supervised", warm=2, max_batch=4,
                      max_delay=0.05, timeout=60.0)

    async def fn(srv):
        sup = srv.engine.backend
        assert sup._gang is not None, "warm= must pre-fork the gang"
        epoch_before = sup._gang.epoch
        bodies = await _client(
            srv.host, srv.port, _pack_payloads(ARRAYS, validate=False))
        assert all(b["ok"] for b in bodies)
        for b, arr in zip(bodies, ARRAYS):
            np.testing.assert_array_equal(
                decode_array(b["result"]), pack_reference(arr, MASK))
        # Still the same warm gang: no re-fork happened mid-service.
        assert sup._gang is not None and sup._gang.epoch == epoch_before
        return sup

    sup = asyncio.run(_supervised_run(cfg, fn))
    assert sup.closed
    assert sup._gang is None


async def _supervised_run(cfg, fn):
    srv = PackUnpackServer(cfg)
    await srv.start()
    try:
        return await fn(srv)
    finally:
        await srv.drain()


def test_supervised_solo_ops_ship_through_the_gang():
    """Solo (uncoalesced) pack/unpack/ranking must run on the warm gang:
    the rank-args closures api.py builds are shipped to real worker
    processes, so nothing unpicklable (e.g. the PlanCache lock) may leak
    into their cells."""
    cfg = ServeConfig(backend="supervised", warm=2, max_batch=1,
                      timeout=60.0)
    k = int(MASK.sum())
    vec = np.arange(k, dtype=np.float64)
    field = np.full(N, -1.0)
    payloads = [
        _pack_payloads(ARRAYS[:1])[0],
        {"id": "un", "op": "unpack", "grid": [2], "scheme": "css",
         "mask": encode_array(MASK), "vector": encode_array(vec),
         "field": encode_array(field)},
        {"id": "rk", "op": "ranking", "grid": [2], "scheme": "css",
         "mask": encode_array(MASK)},
    ]

    async def fn(srv):
        return await _client(srv.host, srv.port, payloads)

    bodies = asyncio.run(_supervised_run(cfg, fn))
    by_id = {b["id"]: b for b in bodies}
    assert all(b["ok"] for b in bodies), by_id
    np.testing.assert_array_equal(
        decode_array(by_id["r0"]["result"]),
        pack_reference(ARRAYS[0], MASK))
    np.testing.assert_array_equal(
        decode_array(by_id["un"]["result"]),
        unpack_reference(vec, MASK, field))
    np.testing.assert_array_equal(
        decode_array(by_id["rk"]["result"]), mask_ranks(MASK))
