"""Command line: ``run``, ``compare`` and ``pin``.

``run`` measures workloads and prints, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or the per-layer ones with ``--trace``).  The metric
names, units, directions and bounds come from ``BENCHMARK.json`` at the
root of the checkout.  Each run also writes a full result file (raw
samples, checks, hygiene, host) to ``--out``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from . import paths, stats, workloads

#: A service run whose generator ran later than this (p99) is invalid.
MAX_LAG_P99_MS = 10.0
#: Cold starts per run; ``setup_s`` is their median, so one start slowed
#: by the host does not move it.
SETUP_REPEATS = 7
#: The seed whose library inputs have pinned simulated costs.
PINNED_SEED = 0


def load_spec() -> dict:
    with open(paths.BENCHMARK_JSON) as f:
        return json.load(f)


# ------------------------------------------------------------------ host
def _git_rev() -> str:
    if not (paths.ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=paths.ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def host_info() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": _git_rev(),
    }


# ------------------------------------------------------------------- run
def _measure(wl, seed: int, seconds: float, trace: bool, out: Path,
             smoke: bool) -> dict:
    setups = 1 if trace or smoke else SETUP_REPEATS
    if isinstance(wl, workloads.LibWorkload):
        from .libworker import launch

        trace_out = str(out / f"{wl.name}.trace.json") if trace else None
        raw = launch(wl, seed, seconds, setups, trace_out)
        raw["correct"] = raw["failed"] == 0 and raw["warm_failed"] == 0
        return raw
    from . import service

    spans = str(out / f"{wl.name}.spans.json") if trace else None
    raw = asyncio.run(service.run(wl, seed, seconds, setups, spans, smoke))
    raw["correct"] = (
        all(c["failed"] == 0 for c in raw["checks"].values())
        and all(h["clean"] for h in raw["hygiene"])
        and raw["unknown_responses"] == 0
    )
    return raw


def _metrics(entries: list[dict], values: dict) -> dict:
    missing = [e["name"] for e in entries if e["name"] not in values]
    if missing:
        raise KeyError(f"benchmark produced no value for {missing}")
    return {e["name"]: {"value": values[e["name"]], "unit": e["unit"]}
            for e in entries}


def run_one(spec: dict, name: str, seed: int, seconds: float, trace: bool,
            out: Path, smoke: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (summary line, full result)."""
    wl = workloads.get(name)
    out.mkdir(parents=True, exist_ok=True)
    host = host_info()
    t0 = time.time()
    raw = _measure(wl, seed, seconds, trace, out, smoke)
    host["loadavg_end"] = list(os.getloadavg())
    e2e = {
        "setup_s": statistics.median(raw["setup_samples"]),
        "ops_per_s": raw["ops_per_s"],
        "p50_ms": raw["p50_ms"],
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    invalid = []
    lag = raw.get("client", {}).get("client.lag_p99_ms", 0.0)
    if lag > MAX_LAG_P99_MS:
        invalid.append(f"client.lag_p99_ms {lag:.2f} > {MAX_LAG_P99_MS}")
    # Whether the tail had the ten samples beyond it that a bounded
    # metric would need (short runs do not).
    raw["tail_supported"] = (
        raw["samples"] >= stats.samples_needed(raw["tail_pct"]))
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "started": t0,
        "correct": raw["correct"], "attempted": raw["attempted"],
        "failed": raw["failed"],
        "fail_ratio": raw["failed"] / max(raw["attempted"], 1),
        "valid": not invalid, "invalid_reasons": invalid,
        "metrics": _metrics(spec["end_to_end"], e2e),
        "host": host,
        "raw": raw,
    }
    if trace:
        # The client-observed tail moves too much between runs on a
        # shared host to carry a bound, so it is reported per layer.
        layer_values = dict(raw["trace"]["per_layer"],
                            **{"client.tail_ms": raw["tail_ms"]})
        result["per_layer"] = _metrics(spec["per_layer"], layer_values)
    kind = "trace" if trace else "run"
    path = out / f"{name}.seed{seed}.{kind}.{time.time_ns()}.json"
    path.write_text(json.dumps(result) + "\n")
    summary = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["per_layer"] if trace else result["metrics"],
    }
    return summary, result


def cmd_run(args) -> int:
    spec = load_spec()
    seconds = 1.0 if args.smoke else float(
        args.seconds if args.seconds is not None else spec["run_seconds"])
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    rc = 0
    for name in names:
        summary, result = run_one(spec, name, args.seed, seconds,
                                  bool(args.trace), Path(args.out),
                                  args.smoke)
        if not result["correct"]:
            print(f"{name}: WRONG RESULTS OR HYGIENE FAILURE (see result "
                  f"file in {args.out})", file=sys.stderr)
            rc = 1
        elif not result["valid"]:
            print(f"{name}: run is INVALID: "
                  f"{'; '.join(result['invalid_reasons'])}", file=sys.stderr)
            rc = rc or 3
        print(json.dumps(summary), flush=True)
    return rc


# --------------------------------------------------------------- compare
def _load_set(where: str) -> dict[str, list[dict]]:
    by_wl: dict[str, list[dict]] = {}
    for f in sorted(Path(where).glob("*.json")):
        doc = json.loads(f.read_text())
        if "workload" not in doc or doc.get("trace") or doc.get("smoke"):
            continue
        by_wl.setdefault(doc["workload"], []).append(doc)
    for runs in by_wl.values():
        runs.sort(key=lambda d: d["started"])
    return by_wl


def compare(spec: dict, set_a: str, set_b: str) -> tuple[list[dict], bool]:
    """Rows of the A-versus-B comparison and whether B stays in bounds."""
    a, b = _load_set(set_a), _load_set(set_b)
    rows, ok = [], True
    for wl in sorted(set(a) & set(b)):
        ra = [d for d in a[wl] if d["valid"]]
        rb = [d for d in b[wl] if d["valid"]]
        for m in spec["end_to_end"]:
            va = [d["metrics"][m["name"]]["value"] for d in ra]
            vb = [d["metrics"][m["name"]]["value"] for d in rb]
            if not va or not vb:
                continue
            qa, qb = stats.quartiles(va), stats.quartiles(vb)
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (qb[1] - qa[1]) / qa[1]
            pairs = list(zip(va, vb))
            wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
            row = {
                "workload": wl, "metric": m["name"], "unit": m["unit"],
                "a": qa, "b": qb, "n": (len(va), len(vb)),
                "invalid": (len(a[wl]) - len(ra), len(b[wl]) - len(rb)),
                "worse": worse, "bound": m["bound"],
                "spread_a": (qa[2] - qa[0]) / qa[1],
                "wins": wins, "pairs": len(pairs),
                "ok": worse <= m["bound"],
            }
            ok &= row["ok"]
            rows.append(row)
    return rows, ok


def cmd_compare(args) -> int:
    rows, ok = compare(load_spec(), args.set_a, args.set_b)
    if not rows:
        print("no workload has valid runs in both sets", file=sys.stderr)
        return 2
    head = (f"{'workload':<11} {'metric':<12} {'A median [q1, q3]':>30} "
            f"{'B median [q1, q3]':>30} {'worse':>8} {'/bound':>7} "
            f"{'spreadA':>8} {'B wins':>7}")
    print(head)
    for r in rows:
        fa = "{:.4g} [{:.4g}, {:.4g}]".format(r["a"][1], r["a"][0], r["a"][2])
        fb = "{:.4g} [{:.4g}, {:.4g}]".format(r["b"][1], r["b"][0], r["b"][2])
        flag = "" if r["ok"] else "  REGRESSION"
        if r["spread_a"] > r["bound"]:
            flag += "  (A spread exceeds bound: unresolved)"
        print(f"{r['workload']:<11} {r['metric']:<12} {fa:>30} {fb:>30} "
              f"{r['worse']:>+8.2%} {r['worse'] / r['bound']:>+7.2f} "
              f"{r['spread_a']:>8.2%} {r['wins']:>3}/{r['pairs']:<3}{flag}")
    skipped = [(r["workload"], r["invalid"]) for r in rows
               if any(r["invalid"])]
    for wl, (ia, ib) in dict(skipped).items():
        print(f"{wl}: skipped {ia} invalid run(s) in A, {ib} in B")
    return 0 if ok else 1


# ------------------------------------------------------------------- pin
def cmd_pin(args) -> int:
    """Re-pin the library inputs' simulated costs."""
    from .inputs import LibInputs
    from .libworker import call, fidelity

    lib = LibInputs(PINNED_SEED)
    pinned = [fidelity(call(lib.get(i), None)[1]) for i in range(len(lib))]
    rows = ",\n  ".join(json.dumps(p) for p in pinned)
    paths.PINNED_JSON.write_text(
        f'{{"seed": {PINNED_SEED},\n "inputs": [\n  {rows}\n ]\n}}\n')
    print(f"pinned {len(pinned)} inputs for seed {PINNED_SEED} -> "
          f"{paths.PINNED_JSON}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                 description=__doc__.split("\n", 1)[0])
    sub = ap.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="measure one or every workload")
    p_run.add_argument("--workload", choices=list(workloads.WORKLOADS),
                       help="default: every workload in turn")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--seconds", type=float, default=None,
                       help="measured seconds per run (default: "
                            "BENCHMARK.json run_seconds)")
    p_run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                       choices=(0, 1),
                       help="record spans: print per-layer metrics and "
                            "write a Chrome trace")
    p_run.add_argument("--out", default=str(paths.OUT_DIR),
                       help="directory for result files and traces")
    p_run.add_argument("--smoke", action="store_true",
                       help="1 s phases and one set-up, to check the "
                            "pipeline (numbers are not comparable)")
    p_cmp = sub.add_parser("compare", help="compare two sets of run results")
    p_cmp.add_argument("set_a", help="directory of baseline result files")
    p_cmp.add_argument("set_b", help="directory of candidate result files")
    sub.add_parser("pin", help="re-pin the library inputs' simulated costs "
                               f"for seed {PINNED_SEED}")
    args = ap.parse_args(argv)
    try:
        paths.ensure_src()
    except paths.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return {"run": cmd_run, "compare": cmd_compare, "pin": cmd_pin}[
        args.command](args)
