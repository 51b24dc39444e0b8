"""Canonical wall-clock performance trajectory with a regression gate.

Unlike the other ``bench_*`` files (which regenerate the paper's *simulated*
tables), this benchmark measures how fast the **simulator itself** runs on
the host — the per-message, per-element and layout-arithmetic hot paths of
the engine, mailbox, codecs and index algebra.  Its output is the repo's
perf trajectory, ``BENCH_perf.json``, appended to by every optimisation PR
and enforced by the CI ``perf`` job.

Macro cases (all P=64 unless noted; seeded, validate off — the serial
oracle is covered by the test suite, here we time the simulator only):

``pack_p64``
    1-D CMS PACK, N=2^20, density 0.5 — the paper's flagship workload.
``unpack_p64``
    1-D CSS UNPACK, same size — two m2m rounds, request/serve codecs.
``pack_p64_grid2d``
    1024x1024 CMS PACK on an 8x8 grid — multi-dimensional ranking,
    segment codec pressure.
``m2m_rxport_direct``
    PACK under receive-port contention with the hot-spotting ``direct``
    schedule — stresses port booking and deep mailboxes.

A separate ``plan_cache`` section times the same PACK cold (fresh plan
cache, full compile) and warm (plan replayed from the cache) and bands
the ``warm_over_cold`` wall ratio; the two runs' simulated times must be
bit-identical or the measurement itself raises.

Wall-clock numbers are normalised by a host-speed calibration loop so the
committed baseline transfers across machines; the CI gate compares the
*normalised* score with a tolerance band (default 25%).  Simulated times
are compared **exactly**: any drift in a case's simulated milliseconds is
a correctness regression, not a perf regression, and fails the gate
outright.  The gate checks the cases this script defines; a case the
baseline still holds but the script no longer defines is reported as
retired, so deleting a case needs no edit to the committed trajectory.

Usage::

    python benchmarks/bench_perf.py                   # measure + print
    python benchmarks/bench_perf.py --record --label PR3
    python benchmarks/bench_perf.py --quick --check   # CI regression gate
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.api import pack, unpack
from repro.machine.spec import CM5

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_perf.json"
SEED = 0
TOLERANCE = 0.25  # CI band: fail on >25% normalised-wall regression


# --------------------------------------------------------------- workloads
#
# Input construction (mask/array generation) happens once per process via
# the memo below, OUTSIDE the timed region — the cases time the simulator,
# not the random number generator.  Inputs are deterministic (fixed seed),
# so every repetition replays the identical simulation.
def _mask(n, density, seed=SEED):
    return np.random.default_rng(seed).random(n) < density


_INPUTS: dict = {}


def _inputs(name, build):
    if name not in _INPUTS:
        _INPUTS[name] = build()
    return _INPUTS[name]


def case_pack_p64():
    n = 1 << 20
    array, mask = _inputs(
        "pack_p64", lambda: (np.arange(n, dtype=np.int64), _mask(n, 0.5))
    )
    r = pack(array, mask, 64, scheme="cms", validate=False)
    return r.run.elapsed


def case_unpack_p64():
    n = 1 << 20

    def build():
        mask = _mask(n, 0.5)
        vector = np.arange(int(mask.sum()), dtype=np.int64)
        field = np.full(n, -1, dtype=np.int64)
        return vector, mask, field

    vector, mask, field = _inputs("unpack_p64", build)
    r = unpack(vector, mask, field, 64, scheme="css", validate=False)
    return r.run.elapsed


def case_pack_p64_grid2d():
    shape = (1024, 1024)
    array, mask = _inputs(
        "pack_p64_grid2d",
        lambda: (
            np.arange(shape[0] * shape[1], dtype=np.int64).reshape(shape),
            _mask(shape[0] * shape[1], 0.3).reshape(shape),
        ),
    )
    r = pack(array, mask, (8, 8), scheme="cms", validate=False)
    return r.run.elapsed


def case_m2m_rxport_direct():
    n = 1 << 18
    array, mask = _inputs(
        "m2m_rxport_direct", lambda: (np.arange(n, dtype=np.int64), _mask(n, 0.5))
    )
    spec = CM5.with_(rx_port=True)
    r = pack(array, mask, 64, scheme="sss", spec=spec,
             m2m_schedule="direct", validate=False)
    return r.run.elapsed


CASES = {
    "pack_p64": case_pack_p64,
    "unpack_p64": case_unpack_p64,
    "pack_p64_grid2d": case_pack_p64_grid2d,
    "m2m_rxport_direct": case_m2m_rxport_direct,
}


# ------------------------------------------------------------- measurement
def calibrate() -> float:
    """Host-speed unit: a fixed numpy+Python mix, seconds (best of 3).

    Perf scores are reported as ``wall / calib`` so a committed baseline
    from one machine gates runs on another.
    """
    def loop():
        rng = np.random.default_rng(7)
        arr = rng.integers(0, 1 << 20, size=1 << 16)
        acc = 0
        for _ in range(40):
            acc += int(np.sort(arr % 1009).sum())
            acc ^= sum(divmod(i, 7)[0] for i in range(2000))
        return acc

    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        loop()
        best = min(best, time.perf_counter() - t0)
    return best


def measure(reps: int) -> dict:
    calib = calibrate()
    cases = {}
    for name, fn in CASES.items():
        best = float("inf")
        sim = None
        fn()  # warm-up: first call pays input construction + cold caches
        for _ in range(reps):
            # Settle the collector so a gen-2 pass triggered by garbage
            # inherited from imports/other cases isn't billed to whichever
            # case happens to cross the threshold — that debt grows with
            # the codebase, not with the measured code path.
            gc.collect()
            t0 = time.perf_counter()
            elapsed = fn()
            wall = time.perf_counter() - t0
            best = min(best, wall)
            if sim is None:
                sim = elapsed
            elif abs(sim - elapsed) > 1e-12 * max(1.0, abs(sim)):
                raise AssertionError(
                    f"{name}: simulated time not reproducible across reps "
                    f"({sim!r} vs {elapsed!r})"
                )
        cases[name] = {
            "wall_ms": round(best * 1e3, 3),
            "norm": round(best / calib, 4),
            "sim_ms": round(sim * 1e3, 9),
        }
        print(f"  {name:<22s} wall {best * 1e3:9.1f} ms   "
              f"norm {best / calib:7.3f}   sim {sim * 1e3:10.3f} ms")
    return {"calib_ms": round(calib * 1e3, 3), "cases": cases}


def measure_plan_cache(reps: int, calib: float) -> dict:
    """Cold-compile vs warm-replay PACK through the plan cache.

    Cold runs get a fresh cache every repetition (full compile each time);
    warm runs replay the plan.  Simulated time must be bit-identical
    between the two — the cache is a wall-clock optimisation only — so a
    mismatch raises instead of being recorded.  ``warm_over_cold`` is the
    banded quantity: it is a wall ratio on the same host and workload, so
    it transfers across machines better than either absolute time.
    """
    from repro.core.plan_cache import PlanCache

    n = 1 << 18
    array, mask = _inputs(
        "plan_cache", lambda: (np.arange(n, dtype=np.int64), _mask(n, 0.5))
    )

    def run(cache):
        t0 = time.perf_counter()
        r = pack(array, mask, 64, scheme="cms", validate=False,
                 plan_cache=cache)
        return time.perf_counter() - t0, r

    run(PlanCache())  # warm-up: input construction + cold numpy caches
    cold_best = warm_best = float("inf")
    sim_cold = sim_warm = None
    compile_ms = None
    for _ in range(reps):
        cache = PlanCache()
        wall, r = run(cache)
        cold_best = min(cold_best, wall)
        sim_cold = r.run.elapsed
        if compile_ms is None:
            compile_ms = r.plan_info["compile_ms"]
        wall, r = run(cache)
        warm_best = min(warm_best, wall)
        sim_warm = r.run.elapsed
        if r.plan_info["cache"] != "hit":
            raise AssertionError(
                f"plan_cache: second run was a {r.plan_info['cache']}, "
                f"not a hit"
            )
        if r.plan_info["compile_ms"] != 0.0:
            raise AssertionError(
                f"plan_cache: hit reported compile "
                f"{r.plan_info['compile_ms']} ms, expected 0"
            )
    if sim_cold != sim_warm:
        raise AssertionError(
            f"plan_cache: replayed simulated time differs from compiled "
            f"({sim_warm!r} vs {sim_cold!r}) — plan replay broke determinism"
        )
    out = {
        "cold_wall_ms": round(cold_best * 1e3, 3),
        "warm_wall_ms": round(warm_best * 1e3, 3),
        "cold_norm": round(cold_best / calib, 4),
        "warm_norm": round(warm_best / calib, 4),
        "warm_over_cold": round(warm_best / cold_best, 4),
        "compile_ms": round(compile_ms, 3),
        "sim_ms": round(sim_cold * 1e3, 9),
    }
    print(f"  plan_cache             cold {cold_best * 1e3:9.1f} ms   "
          f"warm {warm_best * 1e3:9.1f} ms   "
          f"ratio {out['warm_over_cold']:.3f}   "
          f"compile {out['compile_ms']:.1f} ms")
    return out


def _git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except Exception:
        return "unknown"


# ------------------------------------------------------------ trajectory IO
def load() -> dict:
    if OUT.exists():
        return json.loads(OUT.read_text())
    return {"schema": 1, "tolerance": TOLERANCE, "trajectory": []}


def check(entry: dict, baseline: dict, tolerance: float) -> list[str]:
    """Compare a fresh measurement against the committed baseline entry.

    Returns a list of failure strings (empty = gate passes).  Wall clock
    is compared via the host-normalised score with ``tolerance`` slack;
    simulated time must match bit-for-bit (it is deterministic — drift
    means the optimisation changed the model's *results*, which is a
    correctness bug however fast it runs).  Only the cases in
    :data:`CASES` are gated; baseline cases outside it are printed as
    retired.
    """
    failures = []
    for name in sorted(set(baseline["cases"]) - set(CASES)):
        print(f"  {name}: retired (in the baseline, no longer a case)")
    for name in CASES:
        base = baseline["cases"].get(name)
        if base is None:
            print(f"  {name}: no baseline entry yet")
            continue
        cur = entry["cases"][name]
        if abs(cur["sim_ms"] - base["sim_ms"]) > 1e-9:
            failures.append(
                f"{name}: simulated time changed "
                f"{base['sim_ms']} -> {cur['sim_ms']} ms (determinism break)"
            )
        ratio = cur["norm"] / base["norm"] if base["norm"] else float("inf")
        if ratio > 1.0 + tolerance:
            failures.append(
                f"{name}: normalised wall regressed {ratio:.2f}x "
                f"(norm {base['norm']} -> {cur['norm']}, "
                f"band {1.0 + tolerance:.2f}x)"
            )
    pc_base = baseline.get("plan_cache")
    pc_cur = entry.get("plan_cache")
    if pc_base and pc_cur:
        # The banded quantity is warm/cold on the current host — a ratio,
        # so it needs no calibration.  Regressing it means plan replay got
        # slower relative to a full compile.
        limit = pc_base["warm_over_cold"] * (1.0 + tolerance)
        if pc_cur["warm_over_cold"] > limit:
            failures.append(
                f"plan_cache: warm/cold ratio regressed "
                f"{pc_base['warm_over_cold']} -> {pc_cur['warm_over_cold']} "
                f"(limit {limit:.3f} with {1.0 + tolerance:.2f}x band)"
            )
        if abs(pc_cur["sim_ms"] - pc_base["sim_ms"]) > 1e-9:
            failures.append(
                f"plan_cache: simulated time changed "
                f"{pc_base['sim_ms']} -> {pc_cur['sim_ms']} ms "
                f"(determinism break)"
            )
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--quick", action="store_true",
                    help="single repetition per case (CI)")
    ap.add_argument("--record", action="store_true",
                    help="append this measurement to BENCH_perf.json")
    ap.add_argument("--check", action="store_true",
                    help="gate against the last recorded trajectory entry")
    ap.add_argument("--label", default=None, help="trajectory entry label")
    ap.add_argument("--tolerance", type=float, default=None,
                    help=f"regression band (default {TOLERANCE})")
    args = ap.parse_args(argv)

    reps = 1 if args.quick else 5
    print(f"perf cases ({reps} rep{'s' if reps > 1 else ''}):")
    entry = measure(reps)
    entry["plan_cache"] = measure_plan_cache(reps, entry["calib_ms"] / 1e3)
    entry["label"] = args.label or ("quick" if args.quick else "local")
    entry["rev"] = _git_rev()

    doc = load()
    rc = 0
    if args.check:
        if not doc["trajectory"]:
            print("no committed baseline to check against", file=sys.stderr)
            return 2
        baseline = doc["trajectory"][-1]
        tolerance = args.tolerance if args.tolerance is not None \
            else doc.get("tolerance", TOLERANCE)
        failures = check(entry, baseline, tolerance)
        if failures:
            print(f"\nPERF GATE FAILED vs {baseline['label']!r} "
                  f"({baseline.get('rev', '?')}):", file=sys.stderr)
            for f in failures:
                print(f"  - {f}", file=sys.stderr)
            rc = 1
        else:
            print(f"\nperf gate OK vs {baseline['label']!r} "
                  f"({baseline.get('rev', '?')}, "
                  f"band {1.0 + tolerance:.2f}x)")
    if args.record:
        doc["trajectory"].append(entry)
        OUT.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"recorded trajectory entry {entry['label']!r} -> {OUT}")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
