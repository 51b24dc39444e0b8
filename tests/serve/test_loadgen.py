"""`repro loadgen` fails fast when a connection's response reader stops.

Each test points the load generator at a stub server that misbehaves on
purpose.  Requests still in flight when the reader stops must fail at
once with the reason, not wait out the 30 s response deadline.
"""

import asyncio
import json
from time import perf_counter

from repro.serve import LoadgenConfig
from repro.serve.loadgen import run_loadgen_async

TIMEOUT = 30.0


def _run_against(handler, **overrides):
    async def main():
        server = await asyncio.start_server(handler, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        cfg = LoadgenConfig(port=port, rate=50.0, duration=0.2, n=64,
                            connections=1, timeout=TIMEOUT, **overrides)
        t0 = perf_counter()
        try:
            report = await run_loadgen_async(cfg)
        finally:
            server.close()
            await server.wait_closed()
        return report, perf_counter() - t0

    return asyncio.run(main())


def _ok_line(request_line: bytes) -> bytes:
    rid = json.loads(request_line)["id"]
    body = {"id": rid, "ok": True, "batch": {"size": 1, "coalesced": False}}
    return json.dumps(body).encode() + b"\n"


def test_malformed_line_fails_pending_requests_with_its_cause():
    async def handler(reader, writer):
        # Answer the first request with garbage, then keep reading
        # requests and never answer again.
        first = True
        while await reader.readline():
            if first:
                writer.write(b"this is not json\n")
                await writer.drain()
                first = False
        writer.close()

    report, wall = _run_against(handler)
    assert wall < TIMEOUT / 3, wall
    assert report["sent"] == 10
    assert report["ok"] == 0
    assert report["errors"] == report["sent"]
    (cause,) = report["error_causes"]
    assert "JSONDecodeError" in cause, report["error_causes"]


def test_server_closing_mid_run_fails_the_rest_with_its_cause():
    async def handler(reader, writer):
        # Answer two requests properly, then hang up.
        for _ in range(2):
            line = await reader.readline()
            if not line:
                break
            writer.write(_ok_line(line))
            await writer.drain()
        writer.close()

    report, wall = _run_against(handler)
    assert wall < TIMEOUT / 3, wall
    assert report["sent"] == 10
    assert report["ok"] == 2
    assert report["errors"] == report["sent"] - 2
    assert sum(report["error_causes"].values()) == report["errors"]
    assert any("closed" in c or "reset" in c.lower()
               for c in report["error_causes"]), report["error_causes"]
