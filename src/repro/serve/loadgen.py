"""Seeded open-loop load generator for the serve front door.

Open-loop means arrivals are scheduled from a Poisson process derived
from the seed alone — a slow server cannot slow the offered load down,
so saturation, queueing and shedding behave like production traffic
rather than a lockstep benchmark.  Everything is deterministic in the
seed: arrival times, mask pool, per-request array data, op mix.

``run_loadgen`` drives N pipelined connections and returns a structured
report (throughput, latency percentiles, batch-occupancy histogram,
shed/error counts with their causes, plan hit/miss mix).  When a
connection's reader stops — the server closed it or sent a line that is
not JSON — every request still waiting on that connection fails at once
with that cause instead of waiting out ``timeout``.
``request_roundtrip`` is the synchronous one-connection helper the tests
and CI round-trips use.
"""

from __future__ import annotations

import asyncio
import json
import socket
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Mapping, Sequence

import numpy as np

from .protocol import MAX_LINE, encode_array

__all__ = ["LoadgenConfig", "request_roundtrip", "run_loadgen"]


@dataclass
class LoadgenConfig:
    """Everything `repro loadgen` exposes as flags."""

    host: str = "127.0.0.1"
    port: int = 0
    rate: float = 50.0  # offered load, requests/second
    duration: float = 2.0  # seconds of offered arrivals
    seed: int = 0
    n: int = 256  # global 1-D problem size
    procs: int = 2
    block: Any = None
    density: float = 0.3  # mask true-fraction
    masks: int = 4  # mask pool size (coalescing needs repeats)
    ops: Sequence[str] = ("pack",)
    scheme: str = "cms"
    connections: int = 4
    timeout: float = 30.0  # per-request response deadline
    validate: bool = False


# --------------------------------------------------------------- sync helper
def request_roundtrip(
    host: str,
    port: int,
    payloads: Sequence[Mapping[str, Any]],
    timeout: float = 30.0,
    connect_retry: float = 0.0,
) -> list[dict]:
    """Send request payloads over one connection, return the response
    bodies in request order (matched by id).  ``connect_retry`` keeps
    retrying the TCP connect for that many seconds — CI starts the server
    in the background and races it."""
    deadline = perf_counter() + connect_retry
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
            break
        except OSError:
            if perf_counter() >= deadline:
                raise
            import time

            time.sleep(0.05)
    with sock:
        sock.settimeout(timeout)
        f = sock.makefile("rwb")
        for p in payloads:
            f.write(json.dumps(p).encode() + b"\n")
        f.flush()
        by_id: dict[str | None, dict] = {}
        for _ in payloads:
            line = f.readline()
            if not line:
                raise ConnectionError("server closed before all responses")
            body = json.loads(line)
            by_id[body.get("id")] = body
    return [by_id.get(p.get("id")) for p in payloads]


# ---------------------------------------------------------- request building
def _build_requests(cfg: LoadgenConfig) -> list[dict]:
    """The full seeded request sequence (payload dicts, sans timing)."""
    rng = np.random.default_rng(cfg.seed)
    nreq = max(1, int(round(cfg.rate * cfg.duration)))
    pool = [
        rng.random(cfg.n) < cfg.density for _ in range(max(1, cfg.masks))
    ]
    ops = list(cfg.ops)
    out = []
    for i in range(nreq):
        data_rng = np.random.default_rng((cfg.seed, i))
        op = ops[int(rng.integers(len(ops)))]
        mask = pool[int(rng.integers(len(pool)))]
        payload: dict[str, Any] = {
            "id": f"q{i}",
            "op": op,
            "grid": [cfg.procs],
            "block": cfg.block,
            "scheme": cfg.scheme if op == "pack" else "css",
            "mask": encode_array(mask),
            "options": {"validate": cfg.validate},
        }
        if op == "pack":
            payload["array"] = encode_array(
                data_rng.standard_normal(cfg.n)
            )
        elif op == "unpack":
            k = int(mask.sum())
            payload["vector"] = encode_array(data_rng.standard_normal(k))
            payload["field"] = encode_array(np.zeros(cfg.n))
        out.append(payload)
    return out


@dataclass
class _Conn:
    writer: asyncio.StreamWriter
    reader_task: asyncio.Task | None = None
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    #: Response futures of the requests in flight on this connection.
    pending: dict[str, asyncio.Future] = field(default_factory=dict)
    #: Why the reader stopped; set once, after which nothing is answered.
    dead: str | None = None


async def _open_conn(cfg: LoadgenConfig) -> _Conn:
    deadline = perf_counter() + 10.0
    while True:
        try:
            reader, writer = await asyncio.open_connection(
                cfg.host, cfg.port, limit=MAX_LINE
            )
            break
        except OSError:
            if perf_counter() >= deadline:
                raise
            await asyncio.sleep(0.05)

    conn = _Conn(writer=writer)

    async def _read_loop():
        cause = "server closed the connection"
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                body = json.loads(line)
                fut = conn.pending.pop(body.get("id"), None)
                if fut is not None and not fut.done():
                    fut.set_result(body)
        except asyncio.CancelledError:
            cause = "load generator closed the connection"
            raise
        except Exception as exc:  # noqa: BLE001 - any reader death fails waiters
            cause = f"response reader failed: {type(exc).__name__}: {exc}"
        finally:
            conn.dead = cause
            for fut in conn.pending.values():
                if not fut.done():
                    fut.set_exception(ConnectionError(cause))
            conn.pending.clear()

    conn.reader_task = asyncio.create_task(_read_loop())
    return conn


# ------------------------------------------------------------------ the run
async def _run_async(cfg: LoadgenConfig) -> dict:
    payloads = _build_requests(cfg)
    rng = np.random.default_rng((cfg.seed, 0xA221))  # arrival stream
    gaps = rng.exponential(1.0 / cfg.rate, size=len(payloads))
    arrivals = np.cumsum(gaps)

    conns = [await _open_conn(cfg) for _ in range(max(1, cfg.connections))]

    records: list[dict] = []

    # Serialize every request up front: on small hosts the generator and
    # the server share cores, and per-send json.dumps would bill
    # generator CPU to the server's measured service rate.
    lines = [(json.dumps(p) + "\n").encode() for p in payloads]

    async def _one(i: int, payload: dict, line: bytes) -> None:
        conn = conns[i % len(conns)]
        t_send = perf_counter()
        if conn.dead is not None:
            records.append({"status": "error", "latency": 0.0,
                            "cause": conn.dead})
            return
        fut = asyncio.get_running_loop().create_future()
        conn.pending[payload["id"]] = fut
        try:
            async with conn.lock:
                conn.writer.write(line)
                await conn.writer.drain()
            body = await asyncio.wait_for(fut, cfg.timeout)
        except asyncio.TimeoutError:
            conn.pending.pop(payload["id"], None)
            records.append({"status": "timeout", "latency": cfg.timeout})
            return
        except OSError as exc:  # includes the reader's ConnectionError
            conn.pending.pop(payload["id"], None)
            records.append({"status": "error",
                            "latency": perf_counter() - t_send,
                            "cause": str(exc) or type(exc).__name__})
            return
        latency = perf_counter() - t_send
        if body.get("ok"):
            rec = {
                "status": "ok",
                "latency": latency,
                "batch": body.get("batch", {}),
                "plan": body.get("plan"),
            }
        else:
            code = body.get("error", {}).get("code")
            rec = {
                "status": "shed" if code == "overloaded" else "error",
                "latency": latency,
                "code": code,
            }
        records.append(rec)

    t_start = perf_counter()
    tasks = []
    for i, (payload, line, t_at) in enumerate(zip(payloads, lines, arrivals)):
        delay = t_at - (perf_counter() - t_start)
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(_one(i, payload, line)))
    await asyncio.gather(*tasks)
    elapsed = perf_counter() - t_start

    for conn in conns:
        conn.writer.close()
        conn.reader_task.cancel()
    await asyncio.gather(
        *(c.reader_task for c in conns), return_exceptions=True
    )

    return _report(cfg, records, elapsed)


def _percentiles(lat_s: list[float]) -> dict:
    if not lat_s:
        return {"p50": None, "p95": None, "p99": None, "mean": None,
                "max": None}
    a = np.asarray(lat_s) * 1e3
    return {
        "p50": float(np.percentile(a, 50)),
        "p95": float(np.percentile(a, 95)),
        "p99": float(np.percentile(a, 99)),
        "mean": float(a.mean()),
        "max": float(a.max()),
    }


def _report(cfg: LoadgenConfig, records: list[dict], elapsed: float) -> dict:
    ok = [r for r in records if r["status"] == "ok"]
    causes: dict[str, int] = {}
    for r in records:
        if r["status"] == "error":
            cause = r.get("cause") or f"server error {r.get('code')}"
            causes[cause] = causes.get(cause, 0) + 1
    occupancy: dict[str, int] = {}
    coalesced = 0
    plans = {"hit": 0, "miss": 0, "other": 0}
    for r in ok:
        size = int(r["batch"].get("size", 1))
        occupancy[str(size)] = occupancy.get(str(size), 0) + 1
        if r["batch"].get("coalesced"):
            coalesced += 1
        label = r.get("plan")
        plans[label if label in ("hit", "miss") else "other"] += 1
    return {
        "config": {
            "rate": cfg.rate,
            "duration": cfg.duration,
            "seed": cfg.seed,
            "n": cfg.n,
            "procs": cfg.procs,
            "density": cfg.density,
            "masks": cfg.masks,
            "ops": list(cfg.ops),
            "scheme": cfg.scheme,
            "connections": cfg.connections,
        },
        "sent": len(records),
        "ok": len(ok),
        "shed": sum(1 for r in records if r["status"] == "shed"),
        "errors": sum(
            1 for r in records if r["status"] in ("error", "timeout")
        ),
        "error_causes": causes,
        "elapsed_s": elapsed,
        "throughput_rps": len(ok) / elapsed if elapsed > 0 else 0.0,
        "latency_ms": _percentiles([r["latency"] for r in ok]),
        "batch_occupancy": dict(sorted(occupancy.items(),
                                       key=lambda kv: int(kv[0]))),
        "coalesced_fraction": coalesced / len(ok) if ok else 0.0,
        "plan": plans,
    }


async def run_loadgen_async(cfg: LoadgenConfig) -> dict:
    """Coroutine form of :func:`run_loadgen`, for callers (the serve
    benchmark) that already run a loop hosting the server in-process."""
    return await _run_async(cfg)


def run_loadgen(cfg: LoadgenConfig) -> dict:
    """Run the seeded open-loop load and return the report dict."""
    return asyncio.run(_run_async(cfg))
