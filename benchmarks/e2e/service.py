"""Service workloads: a real ``python -m repro serve`` and one client.

The client is one asyncio thread with :data:`workloads.CONNECTIONS`
connections, each opened with the server's own line limit (responses of
``serve_gang`` are ~175 KB, past asyncio's 64 KiB default).  Requests
are pre-serialized (:mod:`inputs`); the open loop times each request
from when it was *due*, so a stalled generator or server shows up as
latency, and reports how late the generator ran.

After each server process the benchmark checks process hygiene: the
SIGTERM drain exits 0 within :data:`DRAIN_TIMEOUT`, no child of the
server survives it, and no POSIX shared-memory segment or
multiprocessing semaphore appeared in ``/dev/shm`` while it ran.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
from time import perf_counter
from typing import Iterator

# At import, so that no cold start's ``setup_s`` includes importing it.
from repro.serve.protocol import MAX_LINE

from . import paths, stats, workloads
from .inputs import Request, ServiceStream, blob_digest

DRAIN_TIMEOUT = 30.0
#: How long a request may stay unanswered after its phase stops sending.
ANSWER_TIMEOUT = 30.0
#: How long to wait for the server to print its address.
START_TIMEOUT = 60.0
#: Open-loop warm-up after every (hot mask, op) pair has been seen once.
WARM_SECONDS = 1.0
#: Capacity-phase requests are built this many at a time, as used.
CAPACITY_CHUNK = 512
#: ``/dev/shm`` names the server can create: ``SharedMemory`` segments
#: (gang rings and buffers) and ``multiprocessing`` semaphores.  New
#: entries with other names belong to other programs on the host.
SHM_PREFIXES = ("psm_", "sem.mp-")


# ------------------------------------------------------------------ /proc
def _stat(pid: int) -> tuple[int, int, str] | None:
    """``(ppid, start time, state)`` of a live process, else ``None``."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            data = f.read()
    except OSError:
        return None
    fields = data[data.rindex(")") + 2:].split()
    return int(fields[1]), int(fields[19]), fields[0]


def descendants(pid: int) -> list[tuple[int, int]]:
    """``(pid, start time)`` of every live descendant of ``pid``."""
    parent_of = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            st = _stat(int(name))
            if st is not None and st[2] != "Z":
                parent_of[int(name)] = st
    out, frontier = [], {pid}
    while frontier:
        nxt = {p for p, st in parent_of.items() if st[0] in frontier}
        out += [(p, parent_of[p][1]) for p in nxt]
        frontier = nxt
    return out


def _alive(proc: tuple[int, int]) -> bool:
    st = _stat(proc[0])
    return st is not None and st[1] == proc[1] and st[2] != "Z"


def vm_hwm_mib(pid: int) -> float:
    """Peak resident set (``VmHWM``) of one process, in MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def shm_listing() -> set[str] | None:
    """Names in ``/dev/shm`` (segments and ``sem.*`` semaphores)."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return None


def new_shm_entries(before: set[str], after: set[str]) -> tuple[list, list]:
    """Entries that appeared between two listings, split into those the
    server could have left (leaks) and those of other programs."""
    new = sorted(after - before)
    leaked = [n for n in new if n.startswith(SHM_PREFIXES)]
    return leaked, [n for n in new if not n.startswith(SHM_PREFIXES)]


# ------------------------------------------------------------------ server
class Server:
    """One ``repro serve`` process and its hygiene check."""

    def __init__(self, proc, t_launch: float, host: str, port: int,
                 shm_before):
        self.proc = proc
        self.t_launch = t_launch
        self.host = host
        self.port = port
        self.shm_before = shm_before

    @classmethod
    async def launch(cls, wl, spans_path: str | None = None) -> "Server":
        args = ["serve", "--backend", wl.backend, "--port", "0"]
        if wl.warm:
            args += ["--warm", str(wl.warm)]
        if spans_path:
            cmd = [sys.executable, "-m", "benchmarks.e2e.host", spans_path]
        else:
            cmd = [sys.executable, "-m", "repro"]
        shm_before = shm_listing()
        t0 = perf_counter()
        proc = await asyncio.create_subprocess_exec(
            *cmd, *args, stdout=asyncio.subprocess.PIPE,
            env=paths.child_env(), cwd=str(paths.ROOT),
        )
        try:
            line = await asyncio.wait_for(proc.stdout.readline(),
                                          START_TIMEOUT)
            if not line.startswith(b"serving on "):
                raise RuntimeError(f"server did not start: {line!r}")
        except BaseException:
            if proc.returncode is None:
                proc.kill()
            await proc.wait()
            raise
        addr = line.split()[2].decode()
        host, port = addr.rsplit(":", 1)
        return cls(proc, t0, host, int(port), shm_before)

    def peak_rss_mib(self) -> float:
        """Summed ``VmHWM`` of the server and its children (gang ranks)."""
        pids = [self.proc.pid] + [p for p, _ in descendants(self.proc.pid)]
        return sum(vm_hwm_mib(p) for p in pids)

    async def stop(self) -> dict:
        """SIGTERM drain, then the hygiene check."""
        kids = descendants(self.proc.pid)
        t0 = perf_counter()
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = await asyncio.wait_for(self.proc.wait(), DRAIN_TIMEOUT)
        except asyncio.TimeoutError:
            self.proc.kill()
            await self.proc.wait()
            code = None
        drain_s = perf_counter() - t0
        await self.proc.stdout.read()
        survivors = await _reap(kids)
        shm_after = shm_listing()
        checked = shm_after is not None and self.shm_before is not None
        leaked, foreign = (new_shm_entries(self.shm_before, shm_after)
                           if checked else ([], []))
        return {
            "exit_code": code,
            "drain_s": drain_s,
            "children": len(kids),
            "survivors": survivors,
            "shm_leaked": leaked,
            "shm_foreign": foreign,
            "shm_checked": checked,
            "clean": code == 0 and not survivors and not leaked,
        }


async def _reap(kids: list[tuple[int, int]], grace: float = 5.0) -> list[int]:
    """Wait for the server's former children to exit; kill and report
    any still alive after ``grace`` seconds."""
    deadline = perf_counter() + grace
    while any(_alive(k) for k in kids) and perf_counter() < deadline:
        await asyncio.sleep(0.05)
    survivors = [k for k in kids if _alive(k)]
    for pid, _ in survivors:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = perf_counter() + grace
    while any(_alive(k) for k in survivors) and perf_counter() < deadline:
        await asyncio.sleep(0.05)
    return [pid for pid, _ in survivors]


# ------------------------------------------------------------------ client
class Client:
    """Pipelined connections to one server; every response is matched to
    its request by id and summarized as it arrives."""

    def __init__(self):
        self.records: dict[str, dict] = {}
        self._waiting: dict[str, asyncio.Future] = {}
        self.conns = []
        self._readers = []
        self.unknown = 0

    async def connect(self, host: str, port: int, n: int) -> None:
        for _ in range(n):
            reader, writer = await asyncio.open_connection(
                host, port, limit=MAX_LINE)
            self.conns.append(writer)
            self._readers.append(asyncio.create_task(self._read(reader)))

    async def close(self) -> None:
        for w in self.conns:
            w.close()
        for w in self.conns:
            try:
                await w.wait_closed()
            except (ConnectionError, OSError):
                pass
        for t in self._readers:
            t.cancel()
        await asyncio.gather(*self._readers, return_exceptions=True)

    async def _read(self, reader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            t = perf_counter()
            body = json.loads(line)
            rid = body.get("id")
            rec = self.records.get(rid)
            if rec is None or "t_recv" in rec:
                self.unknown += 1
                continue
            rec["t_recv"] = t
            rec["bytes_out"] = len(line)
            if body.get("ok"):
                rec["ok"] = True
                rec["digest"] = blob_digest(body["result"])
                rec["queue_ms"] = body["timing"]["queue_ms"]
                rec["batch"] = body["batch"]["size"]
                rec["coalesced"] = body["batch"]["coalesced"]
                rec["plan"] = body.get("plan")
            else:
                rec["ok"] = False
                rec["code"] = body.get("error", {}).get("code")
            fut = self._waiting.pop(rid, None)
            if fut is not None and not fut.done():
                fut.set_result(rec)

    async def send(self, req: Request, conn: int, t_due: float) -> dict:
        rec = {"rid": req.rid, "key": req.key, "t_due": t_due,
               "bytes_in": sum(len(p) for p in req.parts)}
        self.records[req.rid] = rec
        rec["t_send"] = perf_counter()
        writer = self.conns[conn]
        writer.writelines(req.parts)
        await writer.drain()
        return rec

    def waiter(self, rid: str) -> asyncio.Future:
        fut = asyncio.get_running_loop().create_future()
        rec = self.records[rid]
        if "t_recv" in rec:
            fut.set_result(rec)
        else:
            self._waiting[rid] = fut
        return fut

    async def settle(self, rids: list[str]) -> None:
        """Wait until every listed request is answered (or time out)."""
        pending = [self.waiter(r) for r in rids
                   if "t_recv" not in self.records[r]]
        if pending:
            await asyncio.wait(pending, timeout=ANSWER_TIMEOUT)
        for r in rids:
            self._waiting.pop(r, None)

    async def open_loop(self, reqs: list[Request]) -> tuple[float, float]:
        """Send each request at its due time; returns the phase window."""
        n = len(self.conns)
        t0 = perf_counter()
        for i, r in enumerate(reqs):
            due = t0 + r.t_due
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            await self.send(r, i % n, due)
        t_end = max(perf_counter(), t0 + (reqs[-1].t_due if reqs else 0.0))
        await self.settle([r.rid for r in reqs])
        return t0, t_end

    async def closed_loop(self, reqs: Iterator[Request], outstanding: int,
                          seconds: float) -> tuple[float, float, list[str]]:
        """Keep ``outstanding`` requests from the endless ``reqs`` in
        flight per connection for ``seconds``; returns the window and the
        ids sent."""
        sent: list[str] = []
        t0 = perf_counter()
        t_end = t0 + seconds

        async def slot(conn: int) -> None:
            while perf_counter() < t_end:
                r = next(reqs)
                sent.append(r.rid)
                await self.send(r, conn, perf_counter())
                try:
                    await asyncio.wait_for(self.waiter(r.rid), ANSWER_TIMEOUT)
                except asyncio.TimeoutError:
                    return

        await asyncio.gather(*(slot(c) for c in range(len(self.conns))
                               for _ in range(outstanding)))
        return t0, t_end, sent


# --------------------------------------------------------------- the run
def _judge(stream: ServiceStream, recs: list[dict]) -> dict:
    """Outcome counts of answered-or-not requests, checked by digest
    against the serial oracle."""
    out = {"attempted": len(recs), "ok": 0, "wrong": 0, "errors": 0,
           "shed": 0, "timeouts": 0}
    for r in recs:
        if "t_recv" not in r:
            out["timeouts"] += 1
        elif not r["ok"]:
            out["shed" if r.get("code") == "overloaded" else "errors"] += 1
        elif r["digest"] != stream.expected(r["key"]):
            out["wrong"] += 1
        else:
            out["ok"] += 1
    out["failed"] = out["attempted"] - out["ok"]
    return out


async def _cold_start(wl, probe: Request, spans_path=None):
    """Launch a server and time it up to the first probe answer."""
    server = await Server.launch(wl, spans_path)
    client = Client()
    try:
        await client.connect(server.host, server.port, workloads.CONNECTIONS)
        rec = await client.send(probe, 0, perf_counter())
        await client.settle([probe.rid])
    except BaseException:
        await client.close()
        await server.stop()
        raise
    setup_s = rec.get("t_recv", float("nan")) - server.t_launch
    return server, client, setup_s, rec


async def run(wl, seed: int, seconds: float, setups: int,
              spans_path: str | None, smoke: bool) -> dict:
    """One service workload run; returns the raw result."""
    stream = ServiceStream(wl, seed)
    phases = workloads.phase_seconds(wl, seconds)
    probe = stream.phase("probe", 1)[0]
    combos = stream.warm_combos()
    warm = stream.open_loop(0.2 if smoke else WARM_SECONDS, "warm")
    open_reqs = stream.open_loop(phases["open"])

    setup_times, hygiene, probes = [], [], []
    for k in range(setups):
        last = k == setups - 1
        server, client, setup_s, rec = await _cold_start(
            wl, probe, spans_path if last else None)
        setup_times.append(setup_s)
        probes.append(rec)
        if not last:
            await client.close()
            hygiene.append(await server.stop())

    try:
        await client.open_loop(combos)  # all due at once
        await client.open_loop(warm)
        open_t0, open_t1 = await client.open_loop(open_reqs)
        cap_t0, cap_t1, cap_sent = await client.closed_loop(
            stream.endless("capacity", CAPACITY_CHUNK), wl.outstanding,
            phases["capacity"])
        await client.settle(cap_sent)
        peak_rss = server.peak_rss_mib()
    finally:
        await client.close()
        hygiene.append(await server.stop())

    recs = client.records
    opened = [recs[r.rid] for r in open_reqs]
    capacity = [recs[r] for r in cap_sent]
    checks = {
        "probe": _judge(stream, probes),
        "warm": _judge(stream, [recs[r.rid] for r in combos + warm]),
        "open": _judge(stream, opened),
        "capacity": _judge(stream, capacity),
    }
    ok_open = [r for r in opened if r.get("ok")]
    lat = [r["t_recv"] - r["t_due"] for r in ok_open]
    lag = [r["t_send"] - r["t_due"] for r in opened]
    done = sum(1 for r in capacity if r.get("ok") and r["t_recv"] <= cap_t1)
    timed = opened + capacity
    client_layer = {
        "serve.protocol.bytes_in_mean": stats.mean(r["bytes_in"] for r in opened),
        "serve.protocol.bytes_out_mean": stats.mean(
            r["bytes_out"] for r in ok_open),
        "serve.batcher.queue_ms_p50": stats.percentile(
            [r["queue_ms"] for r in ok_open], 50, strict=False),
        "serve.batcher.queue_ms_p99": stats.percentile(
            [r["queue_ms"] for r in ok_open], 99, strict=False),
        "serve.batcher.batch_size_mean": stats.mean(
            r["batch"] for r in ok_open),
        "serve.batcher.coalesced_fraction": stats.mean(
            1.0 if r["coalesced"] else 0.0 for r in ok_open),
        "serve.admission.shed_ratio": sum(
            1 for r in timed if r.get("code") == "overloaded") / len(timed),
        "client.lag_p99_ms": stats.percentile(lag, 99, strict=False) * 1e3,
    }
    result = {
        "attempted": checks["open"]["attempted"]
        + checks["capacity"]["attempted"],
        "failed": checks["open"]["failed"] + checks["capacity"]["failed"],
        "checks": checks,
        "hygiene": hygiene,
        "setup_samples": setup_times,
        "ops_per_s": done / (cap_t1 - cap_t0),
        "p50_ms": stats.percentile(lat, 50) * 1e3,
        "tail_ms": stats.percentile(lat, workloads.SERVE_TAIL_PCT,
                                    strict=False) * 1e3,
        "tail_pct": workloads.SERVE_TAIL_PCT,
        "samples": len(lat),
        "due_s": [round(r["t_due"] - open_t0, 4) for r in ok_open],
        "latency_ms": [round(x * 1e3, 4) for x in lat],
        "capacity_done_s": sorted(
            round(r["t_recv"] - cap_t0, 4) for r in capacity
            if r.get("ok") and r["t_recv"] <= cap_t1),
        "capacity_samples": done,
        "peak_rss_mb": peak_rss,
        "plan_labels": {
            label: sum(1 for r in ok_open if r.get("plan") == label)
            for label in ("hit", "miss")
        },
        "client": client_layer,
        "unknown_responses": client.unknown,
        "windows": {"open": [open_t0, open_t1], "capacity": [cap_t0, cap_t1]},
    }
    if spans_path:
        result["trace"] = _trace(spans_path, ok_open, (open_t0, open_t1),
                                 (open_t0, cap_t1), client_layer)
    return result


def _trace(spans_path: str, ok_open: list[dict], window, full,
           client_layer: dict) -> dict:
    from .layers import chrome_trace, serve_metrics

    with open(spans_path) as f:
        doc = json.load(f)
    os.unlink(spans_path)
    per_layer, info = serve_metrics(
        doc["spans"], ok_open, window, full, doc["exit"], doc["span_cost"],
        client_layer)
    client_spans = [
        [i, None, "client.request", r["t_send"], r["t_recv"], 0,
         {"rids": [r["rid"]], "due": r["t_due"]}]
        for i, r in enumerate(ok_open)
    ]
    trace_path = spans_path[: -len(".spans.json")] + ".trace.json"
    events = chrome_trace(trace_path, [("server", doc["pid"], doc["spans"]),
                                       ("client", os.getpid(), client_spans)],
                          *window)
    info.update(trace_file=trace_path, trace_events=events)
    return {"per_layer": per_layer, "info": info}
