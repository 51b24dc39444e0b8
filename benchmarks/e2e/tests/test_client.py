"""The client: open-loop timing from due times, a closed loop that never
runs out of requests, and the ``/dev/shm`` hygiene rule."""

import asyncio
import json
import time

import numpy as np

from benchmarks.e2e import workloads
from benchmarks.e2e.inputs import Request, ServiceStream, blob
from benchmarks.e2e.service import Client, new_shm_entries

STEP = 0.01  # seconds between due times
STALL_AT, STALL = 0.045, 0.1  # the generator is blocked for 100 ms


async def _echo_server():
    result = blob(np.zeros(1))

    async def handle(reader, writer):
        while True:
            line = await reader.readline()
            if not line:
                break
            body = {"id": json.loads(line)["id"], "ok": True,
                    "result": result, "plan": None,
                    "batch": {"size": 1, "coalesced": False},
                    "timing": {"queue_ms": 0.0}}
            writer.write(json.dumps(body).encode() + b"\n")
            await writer.drain()
        writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def test_late_generator_counts_in_latency():
    async def main():
        server = await _echo_server()
        client = Client()
        await client.connect("127.0.0.1", server.sockets[0].getsockname()[1],
                             2)
        reqs = [Request(f"o{i}", (b'{"id":"o%d"}\n' % i,), ("pack", None, 0),
                        t_due=(i + 1) * STEP) for i in range(20)]
        asyncio.get_running_loop().call_later(STALL_AT, time.sleep, STALL)
        t0, _ = await client.open_loop(reqs)
        await client.close()
        server.close()
        await server.wait_closed()
        return t0, [client.records[r.rid] for r in reqs]

    t0, recs = asyncio.run(main())
    assert all("t_recv" in r for r in recs)
    stall_end = t0 + STALL_AT + STALL
    late = [r for r in recs if t0 + STALL_AT < r["t_due"] < stall_end - STEP]
    assert len(late) >= 5
    for r in late:
        lag = r["t_send"] - r["t_due"]
        # Sent only after the stall, and the wait counts in the latency.
        assert lag >= stall_end - r["t_due"] - 2e-3
        assert r["t_recv"] - r["t_due"] >= lag
        assert r["t_recv"] - r["t_send"] < r["t_recv"] - r["t_due"]
    on_time = [r for r in recs if r["t_due"] < t0 + STALL_AT]
    assert on_time and all(r["t_send"] - r["t_due"] < STALL / 2
                           for r in on_time)


def test_closed_loop_builds_requests_as_fast_as_they_are_answered():
    async def main():
        server = await _echo_server()
        client = Client()
        await client.connect("127.0.0.1", server.sockets[0].getsockname()[1],
                             2)
        stream = ServiceStream(workloads.get("serve_hot"), 0)
        _, _, sent = await client.closed_loop(
            stream.endless("capacity", chunk=8), 4, 0.3)
        await client.settle(sent)
        await client.close()
        server.close()
        await server.wait_closed()
        return client, sent

    client, sent = asyncio.run(main())
    assert len(sent) > 8 * 4 and len(set(sent)) == len(sent)
    assert all(client.records[r].get("ok") for r in sent)


def test_only_the_servers_kind_of_shm_entry_counts_as_a_leak():
    before = {"psm_old", "sem.mp-old", "other"}
    after = before | {"psm_a1", "sem.mp-b2", "pulse-shm-9", "sem.foreign"}
    leaked, foreign = new_shm_entries(before, after - {"psm_old"})
    assert leaked == ["psm_a1", "sem.mp-b2"]
    assert foreign == ["pulse-shm-9", "sem.foreign"]
