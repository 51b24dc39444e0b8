"""Library workloads: a fresh worker process, and its launcher.

The worker (``python -m benchmarks.e2e.libworker``, started by
:func:`launch`) imports ``repro``, makes the first call and prints
``first``; the launcher times the worker from launch up to that line,
which is the set-up time.  Unless ``--first-only``, the worker then
builds every input, checks a warm-up pass against the serial oracle and
the pinned simulated costs, runs the timed closed loop (one caller), and
prints ``result <json>`` as its last line.
"""

from __future__ import annotations

import argparse
import json
import resource
import select
import subprocess
import sys
from time import perf_counter

from . import paths, stats, workloads
from .inputs import LibInputs, lib_reference, result_digest


def call(inp, cache):
    """One library call; returns ``(result array, result object)``."""
    from repro.core import api

    k = inp.kind
    if k.op == "pack":
        res = api.pack(inp.array, inp.mask, k.grid, scheme=k.scheme,
                       validate=False, plan_cache=cache)
        return res.vector, res
    res = api.unpack(inp.vector, inp.mask, inp.field, k.grid,
                     scheme=k.scheme, validate=False, plan_cache=cache)
    return res.array, res


def fidelity(res) -> list:
    """The simulated cost of one call: elapsed seconds, messages, words."""
    run = res.run
    return [run.elapsed, run.total_messages, run.total_words]


def pinned_fidelity(seed: int) -> list | None:
    """Pinned per-input simulated costs for ``seed``, if any are pinned."""
    if not paths.PINNED_JSON.is_file():
        return None
    doc = json.loads(paths.PINNED_JSON.read_text())
    return doc["inputs"] if doc["seed"] == seed else None


class Checks:
    """Counts results that disagree with what they must equal."""

    def __init__(self):
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


def warm_up(inputs, cache, checks: Checks):
    """Oracle digests and cold simulated costs of every input.

    Each input runs once with the plan cache off.  With a cache, it then
    runs once more to fill it and once as a hit, and both must be
    bit-identical to the cold call."""
    expected, cold = [], []
    for i in range(len(inputs)):
        inp = inputs[i]
        expected.append(result_digest(lib_reference(inp)))
        out, res = call(inp, None)
        checks.expect(result_digest(out) == expected[i],
                      f"input {i}: cold result differs from the oracle")
        cold.append(fidelity(res))
        if cache is not None:
            for attempt in ("fill", "hit"):
                out, res = call(inp, cache)
                checks.expect(result_digest(out) == expected[i],
                              f"input {i}: cached ({attempt}) result differs")
                checks.expect(fidelity(res) == cold[i],
                              f"input {i}: cached ({attempt}) simulated cost "
                              f"{fidelity(res)} != cold {cold[i]}")
    return expected, cold


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--first-only", action="store_true")
    ap.add_argument("--trace-out", default=None,
                    help="record spans and write this Chrome trace")
    args = ap.parse_args(argv)
    paths.ensure_src()
    wl = workloads.get(args.workload)

    rec = None
    if args.trace_out:
        from .tracing import Recorder, install

        rec = Recorder()
        install(rec)
    from repro.core.plan_cache import PlanCache

    lib = LibInputs(args.seed)
    cache = PlanCache(capacity=len(lib)) if wl.plan_cache else None
    call(lib.get(0), cache)
    print("first", flush=True)
    if args.first_only:
        return 0

    inputs = [lib.get(i) for i in range(len(lib))]
    checks = Checks()
    expected, cold = warm_up(inputs, cache, checks)
    pinned = pinned_fidelity(args.seed)
    if pinned is not None:
        for i, (got, want) in enumerate(zip(cold, pinned)):
            checks.expect(got == want, f"input {i}: simulated cost {got} "
                                       f"!= pinned {want}")
    warm_failed = checks.failed

    calls: list[tuple[float, float]] = []
    n = len(inputs)
    t_end = perf_counter() + args.seconds
    while perf_counter() < t_end:
        i = len(calls) % n
        t0 = perf_counter()
        out, res = call(inputs[i], cache)
        t1 = perf_counter()
        calls.append((t0, t1))
        checks.expect(result_digest(out) == expected[i]
                      and fidelity(res) == cold[i],
                      f"timed call {len(calls)} (input {i}) is wrong")

    dts = [t1 - t0 for t0, t1 in calls]
    result = {
        "attempted": len(calls),
        "failed": checks.failed - warm_failed,
        "warm_failed": warm_failed,
        "check_messages": checks.messages,
        "pinned_checked": pinned is not None,
        "fidelity": cold,
        "ops_per_s": len(dts) / sum(dts),
        "p50_ms": stats.percentile(dts, 50) * 1e3,
        "tail_ms": stats.percentile(dts, workloads.LIB_TAIL_PCT,
                                    strict=False) * 1e3,
        "tail_pct": workloads.LIB_TAIL_PCT,
        "samples": len(dts),
        "call_start_s": [round(t0 - calls[0][0], 4) for t0, _ in calls],
        "call_ms": [round(dt * 1e3, 4) for dt in dts],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if cache is not None:
        s = cache.stats()
        result["plan_cache"] = {"hits": s.hits, "misses": s.misses,
                                "nbytes": s.nbytes}
    if rec is not None:
        from .layers import chrome_trace, lib_metrics
        from .tracing import exit_stats, span_cost

        spans = list(rec.spans)
        per_layer, info = lib_metrics(spans, calls, exit_stats(rec),
                                      span_cost())
        info["trace_file"] = args.trace_out
        info["trace_events"] = chrome_trace(
            args.trace_out, [("lib worker", 1, spans)],
            calls[0][0], calls[-1][1])
        result["trace"] = {"per_layer": per_layer, "info": info}
    print("result " + json.dumps(result), flush=True)
    return 0


# ------------------------------------------------------------------ launcher
#: Seconds a worker may take beyond its timed phase (imports, inputs,
#: warm-up, oracle checks).
WORKER_SLACK = 120.0


def _readline(proc, timeout: float) -> bytes:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    if not ready:
        raise TimeoutError(f"worker printed nothing within {timeout:g}s")
    return proc.stdout.readline()


def launch(wl, seed: int, seconds: float, setups: int,
           trace_out: str | None) -> dict:
    """Run ``setups`` fresh workers, timing each from launch to its first
    call; the last one goes on to the full run.  Returns its result with
    the set-up samples added."""
    cmd = [sys.executable, "-m", "benchmarks.e2e.libworker",
           "--workload", wl.name, "--seed", str(seed),
           "--seconds", repr(seconds)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    setup_times = []
    for k in range(setups):
        last = k == setups - 1
        t0 = perf_counter()
        proc = subprocess.Popen(cmd + ([] if last else ["--first-only"]),
                                stdout=subprocess.PIPE, env=paths.child_env(),
                                cwd=str(paths.ROOT))
        try:
            line = _readline(proc, WORKER_SLACK)
            setup_times.append(perf_counter() - t0)
            if line.strip() != b"first":
                raise RuntimeError(f"worker failed before its first call "
                                   f"({line!r})")
            rest, _ = proc.communicate(timeout=seconds + WORKER_SLACK)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = rest.decode().strip().splitlines()
    if not lines or not lines[-1].startswith("result "):
        raise RuntimeError("worker printed no result")
    result = json.loads(lines[-1][len("result "):])
    result["setup_samples"] = setup_times
    return result


if __name__ == "__main__":
    sys.exit(main())
