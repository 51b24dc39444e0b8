"""Observability overhead — what a tracer/metrics registry costs.

Every instrumentation site is guarded (``if metrics is not None`` /
``if tracer is not None``), so a run without observers executes the seed
code path; a run with them must change *wall* time only, never the
simulated clocks.  This benchmark measures both claims on a mid-size
PACK and writes ``BENCH_observability.json`` at the repo root:

    python benchmarks/bench_observability.py [--quick] [--check]

Modes: ``off`` (no observers), ``disabled`` (registry attached but
muted — the engine pre-binds metric handles, every recording site is one
cached-flag check), ``metrics`` (registry recording), ``full`` (tracer +
registry, i.e. what a ``PhaseProfiler`` attaches).

``--quick`` drops the repeat count for CI; ``--check`` exits non-zero
unless the ``disabled`` mode's overhead is at most ``CHECK_LIMIT_PCT``
(a muted registry must be as good as no registry).
"""

import argparse
import json
import statistics
import time
from pathlib import Path

import numpy as np

import repro
from repro.machine import Tracer
from repro.obs import MetricsRegistry

N, PROCS, BLOCK, DENSITY = 16384, 16, 8, 0.5
REPEATS = 15
QUICK_REPEATS = 9
MODES = ("off", "disabled", "metrics", "full")

#: ``--check`` gate: max tolerated wall overhead of a *disabled* registry.
CHECK_LIMIT_PCT = 5.0


def _workload():
    rng = np.random.default_rng(0)
    return rng.random(N), rng.random(N) < DENSITY


def _run(array, mask, mode):
    kwargs = {}
    if mode == "disabled":
        reg = MetricsRegistry()
        reg.disable()
        kwargs["metrics"] = reg
    elif mode == "metrics":
        kwargs["metrics"] = MetricsRegistry()
    elif mode == "full":
        kwargs["metrics"] = MetricsRegistry()
        kwargs["tracer"] = Tracer()
    t0 = time.perf_counter()
    result = repro.pack(array, mask, grid=(PROCS,), block=BLOCK,
                        scheme="cms", validate=False, **kwargs)
    return time.perf_counter() - t0, result.run.elapsed


def measure(repeats=REPEATS):
    array, mask = _workload()
    _run(array, mask, "off")  # warm caches once
    wall = {m: [] for m in MODES}
    simulated = {}
    for _ in range(repeats):
        for mode in wall:
            dt, sim = _run(array, mask, mode)
            wall[mode].append(dt)
            simulated.setdefault(mode, sim)

    off = statistics.median(wall["off"])
    off_min = min(wall["off"])
    report = {
        "workload": {"n": N, "nprocs": PROCS, "block": BLOCK,
                     "density": DENSITY, "scheme": "cms",
                     "repeats": repeats},
        "simulated_elapsed_seconds": simulated["off"],
        "deterministic": len(set(simulated.values())) == 1,
        "wall_seconds": {m: statistics.median(ts) for m, ts in wall.items()},
        "overhead_pct": {
            m: 100.0 * (statistics.median(ts) - off) / off
            for m, ts in wall.items()
            if m != "off"
        },
        # Best-of times: robust to scheduler noise (a run can only be
        # slowed down by interference, never sped up), so this is what
        # the --check gate compares.
        "overhead_pct_best": {
            m: 100.0 * (min(ts) - off_min) / off_min
            for m, ts in wall.items()
            if m != "off"
        },
    }
    return report


def test_observers_do_not_change_simulated_time():
    """Determinism: simulated clocks are identical across all modes."""
    array, mask = _workload()
    elapsed = {mode: _run(array, mask, mode)[1] for mode in MODES}
    assert elapsed["disabled"] == elapsed["off"]
    assert elapsed["metrics"] == elapsed["off"]
    assert elapsed["full"] == elapsed["off"]


def test_metrics_overhead_is_modest():
    """The registry adds bounded wall overhead on a mid-size PACK; the
    bound is deliberately loose — CI machines are noisy."""
    report = measure(repeats=QUICK_REPEATS)
    assert report["deterministic"]
    assert report["overhead_pct"]["metrics"] < 50.0
    # A muted registry must be far cheaper than a recording one; keep the
    # in-pytest bound loose (the strict gate is ``--check`` in CI's bench
    # job, where the run is repeated and the median is compared).
    assert report["overhead_pct"]["disabled"] < 25.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help=f"{QUICK_REPEATS} repeats instead of {REPEATS}; "
                         "skip writing BENCH_observability.json")
    ap.add_argument("--check", action="store_true",
                    help="exit 1 unless disabled-registry overhead is "
                         f"<= {CHECK_LIMIT_PCT:.0f}%%")
    args = ap.parse_args(argv)

    report = measure(repeats=QUICK_REPEATS if args.quick else REPEATS)
    if not args.quick:
        out = Path(__file__).resolve().parent.parent / "BENCH_observability.json"
        out.write_text(json.dumps(report, indent=2) + "\n")
    w = report["wall_seconds"]
    print(f"PACK n={N} P={PROCS} "
          f"({report['workload']['repeats']} repeats, median wall time):")
    for mode in MODES:
        pct = report["overhead_pct"].get(mode)
        extra = f"  (+{pct:.1f}%)" if pct is not None else ""
        print(f"  {mode:8s} {w[mode] * 1e3:8.2f} ms{extra}")
    print(f"deterministic simulated time: {report['deterministic']}")
    if not args.quick:
        print(f"[bench -> {out}]")
    ok = report["deterministic"]
    if args.check:
        disabled = report["overhead_pct_best"]["disabled"]
        passed = disabled <= CHECK_LIMIT_PCT
        print(f"check: disabled-registry overhead {disabled:+.1f}% best-of "
              f"(limit {CHECK_LIMIT_PCT:.0f}%) -> "
              f"{'OK' if passed else 'FAIL'}")
        ok = ok and passed
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
