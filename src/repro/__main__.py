"""Top-level command line: ``python -m repro <command>``.

Commands:

* ``info`` — library version, machine profiles, available schemes and PRS
  algorithms;
* ``run {pack,unpack,ranking}`` — run one op through :func:`repro.pack`,
  :func:`repro.unpack` or :func:`repro.ranking` and print one report in
  the backend's own time domain (simulated under ``--backend sim``, host
  wall under ``mp`` and ``supervised``): the result size, the
  ``total/local/prs/m2m`` times and the
  :class:`~repro.obs.runtime.RunProfile` phase table.  ``--trace-out``,
  ``--metrics-out`` and ``--report-out`` export the per-rank Chrome trace,
  the metrics snapshot and the profile JSON (with its P×P communication
  matrix).  Exit 1 if the matrix breaks conservation or a supervised gang
  fell back to the simulator.  See ``docs/observability.md``;
* ``chaos`` — real-process chaos: seeded SIGKILL/SIGSTOP/poison faults
  against a supervised gang; every seed must recover to the bit-identical
  fault-free answer (exit 1 otherwise);
* ``plan`` — compile one workload's execution plan (the mask-dependent
  bookkeeping the plan cache stores), print its summary, optionally
  export the serialized plan or ``--repeat`` to demonstrate the cache
  hit.  See ``docs/plans.md``;
* ``serve`` / ``loadgen`` — the async batching PACK/UNPACK service and a
  seeded open-loop load generator for it.  See ``docs/serve.md``;
* ``conform`` — differential conformance fuzzing: seeded random
  configurations checked against the serial reference, failures shrunk to
  minimal repros (exit 1 on any failure); ``--corpus DIR`` also replays
  the regression corpus, and ``--backend mp`` replays it on the
  real-process backend.  See ``docs/conformance.md``;
* ``experiments ...`` — delegate to :mod:`repro.experiments`;
  ``--metrics-out`` (before the experiment names) snapshots the
  process-wide metrics registry.

Malformed geometry options (``--shape``, ``--grid``, ``--block``,
``--procs``) exit with status 2 and a one-line error, never a traceback.

Examples::

    python -m repro info
    python -m repro run pack --n 65536 --procs 16 --block 8 --density 0.5
    python -m repro run pack --n 65536 --procs 8 --backend mp
    python -m repro run pack --backend mp -p 8 --trace-out pack.mp.trace.json
    python -m repro run unpack --backend supervised -p 4 --n 4096
    python -m repro run pack --shape 512x512 --grid 4x4 --block 4 --scheme sss
    python -m repro run ranking --n 1024 -p 4 --block 8 --report-out r.json
    python -m repro run unpack --n 4096 --procs 8 --metrics-out m.json
    python -m repro chaos --backend mp --procs 4 --seeds 3
    python -m repro conform --cases 200 --seed 4 --corpus tests/conformance/corpus
    python -m repro experiments table1 --full
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


class CLIError(Exception):
    """A user-input problem: printed as one line to stderr, exit status 2."""


def _parse_dims(text: str, flag: str = "--shape") -> tuple[int, ...]:
    try:
        dims = tuple(int(x) for x in text.lower().split("x"))
    except ValueError:
        raise CLIError(
            f"{flag} expects INTxINT... (e.g. 512x512), got {text!r}"
        ) from None
    if not dims or any(d < 0 for d in dims):
        raise CLIError(f"{flag} dimensions must be >= 0, got {text!r}")
    return dims


def _build_spec(args):
    from .machine import CM5, ETHERNET_CLUSTER, IDEAL

    return {"cm5": CM5, "cluster": ETHERNET_CLUSTER, "ideal": IDEAL}[args.machine]


def _workload(args):
    from .workloads import make_mask

    if args.shape:
        shape = _parse_dims(args.shape, "--shape")
        grid = _parse_dims(args.grid, "--grid") if args.grid else (4,) * len(shape)
        if len(grid) != len(shape):
            raise CLIError(
                f"--grid rank {len(grid)} does not match --shape rank "
                f"{len(shape)} ({args.grid!r} vs {args.shape!r})"
            )
    else:
        shape = (args.n,)
        grid = (args.procs,)
    if any(p < 1 for p in grid):
        raise CLIError(f"processor grid must be >= 1 per axis, got {grid}")
    rng = np.random.default_rng(args.seed)
    array = rng.random(shape)
    mask = make_mask(shape, args.mask if args.mask else args.density, seed=args.seed)
    block = args.block if args.block else "block"
    if block not in ("block", "cyclic"):
        try:
            block = int(block)
        except ValueError:
            raise CLIError(
                f"--block expects an integer block size or 'block'/'cyclic', "
                f"got {args.block!r}"
            ) from None
        if block < 1:
            raise CLIError(f"--block must be >= 1, got {block}")
    return array, mask, grid, block


def cmd_info(_args) -> int:
    import repro
    from .collectives import PRS_ALGORITHMS
    from .core.schemes import Scheme
    from .machine import CM5, ETHERNET_CLUSTER, IDEAL

    print(f"repro {repro.__version__} — PACK/UNPACK on coarse-grained machines")
    print(f"  schemes: {', '.join(s.value for s in Scheme)} (+ red.1/red.2 pre-passes)")
    print(f"  PRS algorithms: {', '.join(PRS_ALGORITHMS)}")
    print("  machine profiles:")
    for spec in (CM5, ETHERNET_CLUSTER, IDEAL):
        ctrl = "ctrl-net" if spec.has_control_network else "no ctrl-net"
        print(
            f"    {spec.name:18s} tau={spec.tau * 1e6:7.1f}us "
            f"mu={spec.mu * 1e6:5.2f}us/word delta={spec.delta * 1e6:5.2f}us/op "
            f"({ctrl})"
        )
    print("  experiments: python -m repro experiments all")
    return 0


def _plan_cache_arg(args):
    """``plan_cache=`` argument for the core API from ``--plan-cache``."""
    return True if getattr(args, "plan_cache", "off") == "on" else None


def _print_plan_info(result) -> None:
    info = getattr(result, "plan_info", None)
    if not info:
        return
    line = f"  plan cache: {info['cache']}"
    if info.get("compile_ms") is not None:
        line += (f"  compile {info['compile_ms']:.3f} ms"
                 f"  plan {info['plan_bytes']} B"
                 f"  key {info['fingerprint'][:12]}")
    print(line)


def _op_scheme(args) -> str:
    """PACK takes any scheme; UNPACK and the ranking take ``sss``/``css``
    and run any other ``--scheme`` as ``css``."""
    if args.op == "pack" or args.scheme in ("sss", "css"):
        return args.scheme
    return "css"


def _run_op(args, array, mask, **kwargs):
    """Lower ``args.op`` to its library call.  UNPACK scatters a seeded
    random vector of the mask's size into ``array``."""
    from .core.api import pack, ranking, unpack

    scheme = _op_scheme(args)
    if args.op == "pack":
        return pack(array, mask, scheme=scheme,
                    redistribute=getattr(args, "redistribute", None), **kwargs)
    if args.op == "unpack":
        vector = np.random.default_rng(args.seed + 1).random(int(mask.sum()))
        return unpack(vector, mask, array, scheme=scheme, **kwargs)
    return ranking(mask, scheme=scheme, **kwargs)


def _backend(args):
    """``--backend`` as a context manager.  A supervised gang is closed on
    exit, so no gang child or ``/dev/shm`` segment outlives the command."""
    from contextlib import nullcontext

    from .runtime import GangSupervisor, MpBackend, get_backend

    if args.backend == "supervised":
        return GangSupervisor(timeout=args.timeout, transport=args.transport)
    if args.backend == "mp":
        return nullcontext(MpBackend(timeout=args.timeout,
                                     transport=args.transport))
    return nullcontext(get_backend(args.backend))


def cmd_run(args) -> int:
    """Run one op under a :class:`~repro.obs.runtime.RuntimeProfiler`,
    print its report and export the requested artifacts.  Exit 1 if the
    comm matrix breaks conservation or a supervised gang fell back."""
    from .obs import MetricsRegistry
    from .obs.exporters import write_metrics
    from .obs.runtime import RuntimeProfiler

    if args.redistribute and args.op != "pack":
        raise CLIError(f"--redistribute applies to pack only, not {args.op}")
    array, mask, grid, block = _workload(args)
    profiler = RuntimeProfiler()
    metrics = MetricsRegistry() if args.metrics_out else None
    with _backend(args) as backend:
        result = _run_op(
            args, array, mask, grid=grid, block=block, spec=_build_spec(args),
            validate=not args.no_validate, backend=backend,
            plan_cache=_plan_cache_arg(args), profile=profiler, metrics=metrics,
        )
        stats = backend.stats if args.backend == "supervised" else None
    profile = profiler.profile
    print(f"{args.op.upper()} {array.shape} on grid {grid}, block {block}, "
          f"scheme {_op_scheme(args)}: Size = {result.size}")
    _print_plan_info(result)
    print(f"  total {result.total_ms:9.3f} ms   local {result.local_ms:9.3f} ms")
    print(f"  prs   {result.prs_ms:9.3f} ms   m2m   {result.m2m_ms:9.3f} ms")
    print(profile.summary())
    if args.phases:
        for name, t in sorted(result.times.items()):
            print(f"    {name:<40s} {t:9.3f} ms")
    if profile.dropped_events:
        print(f"  [{profile.dropped_events} spans dropped from the trace; "
              f"the phase table is still exact]")

    failures = []
    try:
        profile.validate_conservation()
        print("  comm matrix: conservation OK "
              "(row sums == sends, column sums == receives)")
    except ValueError as exc:
        failures.append(f"comm matrix conservation violated: {exc}")
    if stats is not None:
        print(f"  supervisor: gang epoch {stats.gang_epoch}, "
              f"ops {stats.ops} ({stats.warm_ops} warm / {stats.cold_ops} "
              f"cold), retries {stats.retries}, rebuilds {stats.rebuilds}, "
              f"fallbacks {stats.fallbacks}")
        if stats.fallbacks:
            failures.append(
                f"supervisor degraded to the simulator {stats.fallbacks} "
                f"time(s): the real-process gang is not healthy")

    if args.trace_out:
        n = profile.write_chrome_trace(args.trace_out)
        print(f"[trace: {n} events -> {args.trace_out}; "
              f"open in https://ui.perfetto.dev]")
    if args.metrics_out:
        write_metrics(args.metrics_out, metrics)
        print(f"[metrics -> {args.metrics_out}]")
    if args.report_out:
        profile.to_json(args.report_out)
        print(f"[report -> {args.report_out}]")
    for line in failures:
        print(f"FAIL: {line}")
    return 1 if failures else 0


def cmd_chaos(args) -> int:
    """Real-process chaos: seeded SIGKILL/SIGSTOP/poison faults against a
    supervised persistent gang.  Every seed must recover to the
    bit-identical fault-free answer; mean-time-to-recovery is reported."""
    from time import monotonic

    from .core.api import pack
    from .faults.chaos import ChaosPlan
    from .runtime import GangSupervisor, MpGangError, RetryPolicy
    from .workloads import make_mask

    fail_kinds = ("spawn_failure", "rank_death", "heartbeat_miss",
                  "op_timeout", "poisoned_result")
    spec = _build_spec(args)
    rng = np.random.default_rng(args.seed)
    array = rng.random(args.n)
    mask = make_mask((args.n,), args.density, seed=args.seed)
    seeds = range(args.fault_seed, args.fault_seed + args.seeds)
    retry = RetryPolicy(max_retries=3, base_delay=0.05, jitter=0.1,
                        seed=args.fault_seed)
    kinds = tuple(args.kill_kinds.split(","))

    print(f"chaos --backend mp: PACK n={args.n} P={args.procs} on "
          f"{spec.name}; {args.kills} real fault(s)/seed, "
          f"kinds={','.join(kinds)}")
    with GangSupervisor(timeout=args.timeout) as clean:
        base = pack(array, mask, grid=(args.procs,), scheme=args.scheme,
                    spec=spec, validate=True, backend=clean)
    print(f"  baseline: Size={base.size} on a fault-free supervised gang")

    failures = []
    for seed in seeds:
        plan = ChaosPlan.random(
            seed=seed, nprocs=args.procs, n_events=args.kills, kinds=kinds,
            phases=("spawn", "start", "collective", "flush"),
        )
        sup = GangSupervisor(timeout=args.timeout, retry=retry, chaos=plan,
                             heartbeat_interval=0.1, heartbeat_timeout=3.0)
        t0 = monotonic()
        print(f"  seed={seed}: {plan.describe()}")
        try:
            with sup:
                res = pack(array, mask, grid=(args.procs,),
                           scheme=args.scheme, spec=spec, validate=True,
                           backend=sup)
                st = sup.stats
        except MpGangError as exc:
            failures.append((seed, f"unrecovered: {exc}"))
            print(f"    FAIL: {exc}")
            continue
        wall_ms = (monotonic() - t0) * 1e3
        t_fail = min((e.t for e in st.events if e.kind in fail_kinds),
                     default=None)
        t_ok = max((e.t for e in st.events if e.kind == "op_ok"),
                   default=None)
        mttr_ms = ((t_ok - t_fail) * 1e3
                   if t_fail is not None and t_ok is not None else 0.0)
        identical = (res.size == base.size
                     and bool(np.array_equal(res.vector, base.vector)))
        print(f"    recovered={identical} observed={sum(st.failures.values())}"
              f" retries={st.retries} rebuilds={st.rebuilds} "
              f"MTTR={mttr_ms:.0f} ms wall={wall_ms:.0f} ms")
        if not identical:
            failures.append((seed, "result diverged from fault-free baseline"))

    if failures:
        print(f"FAIL: {len(failures)}/{args.seeds} chaos seeds failed:")
        for seed, why in failures:
            print(f"  seed={seed}: {why}")
        return 1
    print(f"OK: {args.seeds} real-process chaos seeds recovered "
          f"bit-identical to the fault-free baseline")
    return 0


def cmd_plan(args) -> int:
    """Compile the plan for one workload and print (or export) it.

    Runs the op once with a private plan cache so the compile is captured,
    prints the plan summary, and with ``--repeat`` runs it again to
    demonstrate the hit (compile time drops to zero — the charges are
    replayed from the plan, so the simulated result is bit-identical).
    """
    from .core.plan_cache import PlanCache

    array, mask, grid, block = _workload(args)
    spec = _build_spec(args)
    cache = PlanCache(capacity=32 if args.plan_cache_file else 4)
    if args.plan_cache_file:
        import os

        if os.path.exists(args.plan_cache_file):
            loaded = cache.load_into(args.plan_cache_file)
            print(f"[plan cache <- {args.plan_cache_file}: "
                  f"{loaded} plan(s)]")
    common = dict(grid=grid, block=block, spec=spec,
                  validate=not args.no_validate, backend=args.backend,
                  plan_cache=cache)
    result = _run_op(args, array, mask, **common)
    key = cache.keys()[-1]  # LRU order: the key this run used is last
    plan = cache.peek(key)
    print(plan.summary())
    print(f"  key: {key.describe()}")
    info = result.plan_info or {}
    print(f"  compile: {info.get('compile_ms') or 0.0:.3f} ms wall "
          f"(status {info.get('cache', '?')})")
    if args.repeat:
        again = _run_op(args, array, mask, **common)
        info2 = again.plan_info or {}
        line = (f"  repeat: status {info2.get('cache', '?')}, "
                f"compile {info2.get('compile_ms') or 0.0:.3f} ms")
        same = True
        if args.backend == "sim":
            # Simulated time is deterministic: the replayed charges must
            # reproduce it exactly.  (Wall backends vary run to run.)
            same = again.total_ms == result.total_ms
            line += f", simulated time {'bit-identical' if same else 'DIFFERS'}"
        print(line)
        if info2.get("cache") != "hit" or not same:
            return 1
    if args.out:
        import json
        from pathlib import Path

        Path(args.out).write_text(json.dumps(plan.to_dict()) + "\n")
        print(f"[plan -> {args.out}]")
    if args.plan_cache_file:
        saved = cache.save(args.plan_cache_file)
        print(f"[plan cache -> {args.plan_cache_file}: {saved} plan(s)]")
    return 0


def cmd_serve(args) -> int:
    """Run the async batching PACK/UNPACK service until SIGTERM/SIGINT."""
    import asyncio

    from .serve import PackUnpackServer, ServeConfig

    cfg = ServeConfig(
        host=args.host,
        port=args.port,
        backend=args.backend,
        max_delay=args.max_delay_ms / 1e3,
        max_batch=args.max_batch,
        max_queue=args.max_queue,
        max_inflight=args.max_inflight,
        plan_cache_capacity=args.plan_cache_capacity,
        plan_cache_file=args.plan_cache_file,
        metrics_out=args.metrics_out,
        warm=args.warm,
        timeout=args.timeout,
        transport=args.transport,
    )
    server = PackUnpackServer(cfg)

    def _ready(srv):
        print(f"serving on {srv.host}:{srv.port} (backend={cfg.backend}, "
              f"window={cfg.max_delay * 1e3:g} ms, "
              f"max_batch={cfg.max_batch})", flush=True)

    asyncio.run(server.run_until_signal(ready=_ready))
    stats = server.engine.plan_cache.stats()
    print(f"drained: {server.metrics.value('serve.requests'):.0f} request(s), "
          f"{server.batcher.batches} batch(es) "
          f"({server.batcher.coalesced_batches} coalesced), "
          f"{server.admission.shed} shed; plan cache {stats.describe()}")
    return 0


def cmd_loadgen(args) -> int:
    """Seeded open-loop load against a running `repro serve`."""
    from .serve import LoadgenConfig, run_loadgen

    ops = tuple(s for s in args.ops.split(",") if s)
    bad = [o for o in ops if o not in ("pack", "unpack", "ranking")]
    if bad:
        raise CLIError(f"unknown op(s) in --ops: {', '.join(bad)}")
    cfg = LoadgenConfig(
        host=args.host,
        port=args.port,
        rate=args.rate,
        duration=args.duration,
        seed=args.seed,
        n=args.n,
        procs=args.procs,
        density=args.density,
        masks=args.masks,
        ops=ops or ("pack",),
        scheme=args.scheme,
        connections=args.connections,
        timeout=args.timeout,
        validate=args.validate,
    )
    report = run_loadgen(cfg)
    lat = report["latency_ms"]
    print(f"loadgen: {report['ok']}/{report['sent']} ok, "
          f"{report['shed']} shed, {report['errors']} error(s) in "
          f"{report['elapsed_s']:.2f} s "
          f"({report['throughput_rps']:.1f} req/s)")
    for cause, count in report["error_causes"].items():
        print(f"  {count} error(s): {cause}")
    if lat["p50"] is not None:
        print(f"  latency ms: p50={lat['p50']:.2f} p95={lat['p95']:.2f} "
              f"p99={lat['p99']:.2f} max={lat['max']:.2f}")
    print(f"  batch occupancy: {report['batch_occupancy']} "
          f"(coalesced {report['coalesced_fraction']:.0%}); "
          f"plan {report['plan']}")
    if args.json_out:
        import json

        with open(args.json_out, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
        print(f"[report -> {args.json_out}]")
    if report["ok"] == 0 or report["errors"] > 0:
        return 2
    return 0


def cmd_conform(args) -> int:
    """Differential conformance fuzz + optional corpus replay (exit 1 on any
    failure; every fuzz failure is printed with its minimized repro)."""
    from .conformance import fuzz, replay_corpus

    failed = 0
    if args.corpus:
        if args.cross_check:
            from pathlib import Path

            from .conformance import cross_check_case, load_corpus_case

            results = []
            for path in sorted(Path(args.corpus).glob("*.json")):
                case, bug = load_corpus_case(path)
                results.append((path, bug, cross_check_case(case)))
            label = "sim+mp+supervised cross-check"
        elif args.plan_cache == "on":
            # Replay twice through one shared cache: pass 1 compiles the
            # plans, pass 2 must replay them (hits > 0, same oracle
            # verdicts) — this is the bit-identity gate CI runs.
            from .core.plan_cache import PlanCache

            cache = PlanCache(capacity=256)
            first = replay_corpus(args.corpus, backend=args.backend,
                                  plan_cache=cache)
            compiled = cache.stats().misses
            results = replay_corpus(args.corpus, backend=args.backend,
                                    plan_cache=cache)
            stats = cache.stats()
            label = (f"backend={args.backend}, plan cache: "
                     f"{compiled} compiled, {stats.hits} replayed")
            failed += sum(1 for _, _, o in first if not o.ok)
            if compiled and not stats.hits:
                print("PLAN CACHE: second corpus pass produced zero hits "
                      "(every case recompiled — cache keying is broken)")
                failed += 1
        else:
            results = replay_corpus(args.corpus, backend=args.backend)
            label = f"backend={args.backend}"
        bad = [(p, bug, o) for p, bug, o in results if not o.ok]
        print(f"corpus ({label}): {len(results)} entr(ies) from {args.corpus}: "
              f"{len(bad)} failure(s)")
        for path, bug, outcome in bad:
            print(f"  REGRESSION {path.name}: {outcome}\n    pinned bug: {bug}")
        failed += len(bad)

    progress = None
    if args.cases >= 100:
        def progress(done, total, fails):
            if done % 100 == 0 or done == total:
                print(f"  [{done}/{total}] {fails} failure(s)", flush=True)

    report = fuzz(seed=args.seed, cases=args.cases,
                  max_shrink=args.max_shrink, progress=progress)
    print(report.summary())
    failed += len(report.failures)
    return 1 if failed else 0


def _add_workload_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=16384, help="1-D array size")
    p.add_argument("-p", "--procs", "--nprocs", type=int, default=16,
                   dest="procs", help="1-D processor count")
    p.add_argument("--shape", help="nD shape, e.g. 512x512 (overrides --n)")
    p.add_argument("--grid", help="nD processor grid, e.g. 4x4")
    p.add_argument("--block", help="block size (int) or 'block'/'cyclic'")
    p.add_argument("--density", type=float, default=0.5, help="random mask density")
    p.add_argument("--mask", help="mask kind: e.g. 30%%, half, lt")
    p.add_argument("--scheme", default="cms", help="sss / css / cms")
    p.add_argument("--machine", default="cm5", choices=("cm5", "cluster", "ideal"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-validate", action="store_true")
    p.add_argument("--backend", default="sim",
                   choices=("sim", "mp", "supervised"),
                   help="execution backend: 'sim' (deterministic cost "
                        "simulator, simulated times), 'mp' (one OS "
                        "process per rank on real cores, wall times), or "
                        "'supervised' (persistent warm gang with "
                        "heartbeat supervision and retry recovery)")
    p.add_argument("--plan-cache", default="off", choices=("on", "off"),
                   dest="plan_cache",
                   help="compile the mask-dependent bookkeeping into a "
                        "cached plan (process-wide LRU) and replay it on "
                        "repeat calls with the same geometry and mask")


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser, every subcommand included."""
    parser = argparse.ArgumentParser(prog="python -m repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="library and machine information")

    p_run = sub.add_parser(
        "run",
        help="run one PACK, UNPACK or ranking on any backend and print its "
             "report (exit 1 on a failed conservation or gang-health check)",
    )
    p_run.add_argument("op", choices=("pack", "unpack", "ranking"))
    _add_workload_args(p_run)
    p_run.add_argument("--transport", choices=("queue", "ring"),
                       help="mp/supervised message transport (default: "
                            "$REPRO_MP_TRANSPORT, then ring)")
    p_run.add_argument("--timeout", type=float, default=120.0,
                       help="wall-clock budget of an mp or supervised gang "
                            "in seconds")
    p_run.add_argument("--redistribute", choices=("selected", "whole"),
                       help="pack only: Red.1 (selected) or Red.2 (whole) "
                            "pre-pass")
    p_run.add_argument("--phases", action="store_true",
                       help="print every phase time of the result")
    p_run.add_argument("--trace-out", dest="trace_out",
                       help="write the per-rank Chrome-trace JSON")
    p_run.add_argument("--metrics-out", dest="metrics_out",
                       help="write the metrics snapshot (.json or .csv)")
    p_run.add_argument("--report-out", dest="report_out",
                       help="write the RunProfile JSON (phase table and "
                            "P×P comm matrix)")

    p_chaos = sub.add_parser(
        "chaos",
        help="seeded real-process faults against a supervised gang; "
             "every seed must recover bit-identically",
    )
    p_chaos.add_argument("--n", type=int, default=4096, help="1-D array size")
    p_chaos.add_argument("--procs", type=int, default=8, help="processor count")
    p_chaos.add_argument("--density", type=float, default=0.5)
    p_chaos.add_argument("--scheme", default="cms", help="PACK scheme")
    p_chaos.add_argument("--machine", default="cm5",
                         choices=("cm5", "cluster", "ideal"))
    p_chaos.add_argument("--seed", type=int, default=0, help="workload seed")
    p_chaos.add_argument("--fault-seed", type=int, default=0, dest="fault_seed")
    p_chaos.add_argument("--seeds", type=int, default=3,
                         help="chaos seeds, one supervised gang each")
    p_chaos.add_argument("--backend", default="mp", choices=("mp",),
                         help="the gang's backend (real processes only)")
    p_chaos.add_argument("--kills", type=int, default=1,
                         help="real faults per seed")
    p_chaos.add_argument("--kill-kinds", default="kill", dest="kill_kinds",
                         help="comma-separated mp fault kinds drawn per "
                              "seed: kill,stop,delay,poison")
    p_chaos.add_argument("--timeout", type=float, default=120.0,
                         help="wall-clock budget per supervised op")

    p_plan = sub.add_parser(
        "plan",
        help="compile a workload's plan, print its summary, optionally "
             "export it as JSON or re-run to demonstrate the cache hit",
    )
    p_plan.add_argument("--op", default="pack",
                        choices=("pack", "unpack", "ranking"))
    _add_workload_args(p_plan)
    p_plan.add_argument("--out", help="write the serialized plan JSON")
    p_plan.add_argument("--repeat", action="store_true",
                        help="run the workload a second time and assert a "
                             "cache hit with bit-identical simulated time")
    p_plan.add_argument("--plan-cache-file", dest="plan_cache_file",
                        help="load the plan cache from this JSON file before "
                             "the run (if it exists) and save it back after "
                             "— shared with `repro serve --plan-cache-file`")

    p_serve = sub.add_parser(
        "serve",
        help="async batching PACK/UNPACK service: newline-delimited JSON "
             "over TCP with request coalescing, admission control and "
             "graceful SIGTERM drain",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="TCP port (0 = ephemeral; the bound port is "
                              "printed on the 'serving on' line)")
    p_serve.add_argument("--backend", default="sim",
                         choices=("sim", "mp", "supervised"),
                         help="execution backend shared by all requests")
    p_serve.add_argument("--max-delay-ms", type=float, default=2.0,
                         dest="max_delay_ms",
                         help="coalescing window: how long a request may "
                              "wait for compatible peers while the engine "
                              "is busy; an idle engine takes it at once "
                              "(default 2 ms)")
    p_serve.add_argument("--max-batch", type=int, default=8, dest="max_batch",
                         help="max requests per coalesced gang (1 = solo)")
    p_serve.add_argument("--max-queue", type=int, default=256,
                         dest="max_queue",
                         help="admission bound on in-flight requests; past "
                              "it requests are shed with 'overloaded'")
    p_serve.add_argument("--max-inflight", type=int, default=2,
                         dest="max_inflight",
                         help="concurrent backend executions (thread pool "
                              "width)")
    p_serve.add_argument("--plan-cache-capacity", type=int, default=128,
                         dest="plan_cache_capacity")
    p_serve.add_argument("--plan-cache-file", dest="plan_cache_file",
                         help="warm the shared plan cache from this file at "
                              "start and persist it on drain")
    p_serve.add_argument("--metrics-out", dest="metrics_out",
                         help="write the serve metrics snapshot JSON on "
                              "drain")
    p_serve.add_argument("--warm", type=int,
                         help="pre-fork a gang of this many ranks "
                              "(supervised backend) before accepting load")
    p_serve.add_argument("--timeout", type=float, default=None,
                         help="per-op watchdog for the supervised backend")
    p_serve.add_argument("--transport", default=None,
                         choices=("queue", "ring"),
                         help="mp/supervised message transport")

    p_loadgen = sub.add_parser(
        "loadgen",
        help="seeded open-loop load generator against a running "
             "`repro serve` (Poisson arrivals, pipelined connections)",
    )
    p_loadgen.add_argument("--host", default="127.0.0.1")
    p_loadgen.add_argument("--port", type=int, required=True)
    p_loadgen.add_argument("--rate", type=float, default=50.0,
                           help="offered load in requests/second")
    p_loadgen.add_argument("--duration", type=float, default=2.0,
                           help="seconds of offered arrivals")
    p_loadgen.add_argument("--seed", type=int, default=0)
    p_loadgen.add_argument("--n", type=int, default=256,
                           help="global 1-D problem size")
    p_loadgen.add_argument("--procs", type=int, default=2)
    p_loadgen.add_argument("--density", type=float, default=0.3)
    p_loadgen.add_argument("--masks", type=int, default=4,
                           help="mask pool size (coalescing needs repeats)")
    p_loadgen.add_argument("--ops", default="pack",
                           help="comma-separated op mix: pack,unpack,ranking")
    p_loadgen.add_argument("--scheme", default="cms")
    p_loadgen.add_argument("--connections", type=int, default=4)
    p_loadgen.add_argument("--timeout", type=float, default=30.0,
                           help="per-request response deadline")
    p_loadgen.add_argument("--validate", action="store_true",
                           help="ask the server to validate against the "
                                "serial reference")
    p_loadgen.add_argument("--json-out", dest="json_out",
                           help="write the full report JSON")

    p_conform = sub.add_parser(
        "conform",
        help="differential conformance fuzz vs the serial reference "
             "(seeded; failures are shrunk to minimal repros)",
    )
    p_conform.add_argument("--seed", type=int, default=4,
                           help="seed of the case-draw stream")
    p_conform.add_argument("--cases", type=int, default=200,
                           help="number of random cases to run")
    p_conform.add_argument("--max-shrink", type=int, default=200,
                           dest="max_shrink",
                           help="oracle evaluations the shrinker may spend "
                                "per failure")
    p_conform.add_argument("--corpus",
                           help="also replay every *.json regression corpus "
                                "entry in this directory")
    p_conform.add_argument("--backend", default="sim",
                           choices=("sim", "mp", "supervised"),
                           help="execution backend for the corpus replay "
                                "(the fuzz loop always runs on 'sim'); "
                                "'supervised' replays every entry through "
                                "one warm gang")
    p_conform.add_argument("--cross-check", action="store_true",
                           dest="cross_check",
                           help="replay the corpus on every backend "
                                "(sim, mp and supervised) instead of just "
                                "--backend")
    p_conform.add_argument("--plan-cache", default="off",
                           choices=("on", "off"), dest="plan_cache",
                           help="replay the corpus twice through one shared "
                                "plan cache: pass 1 compiles, pass 2 must "
                                "hit (exit 1 on zero hits or any oracle "
                                "failure)")

    p_exp = sub.add_parser("experiments", help="regenerate paper artifacts")
    p_exp.add_argument("--metrics-out", dest="metrics_out",
                       help="snapshot the process-wide metrics registry "
                            "after the experiments finish (place before "
                            "the experiment names)")
    p_exp.add_argument("rest", nargs=argparse.REMAINDER)
    return parser


def main(argv=None) -> int:
    from .runtime.base import BackendError

    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, BackendError) as exc:
        # Library-level validation (bad dist/grid/block geometry, paper
        # divisibility, simulator-only feature on another backend): a
        # user-input problem, not a crash — one line.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cmd_experiments(args) -> int:
    from .experiments.__main__ import main as exp_main

    if not args.metrics_out:
        return exp_main(args.rest)
    from .obs import disable_global_metrics, enable_global_metrics
    from .obs.exporters import write_metrics

    registry = enable_global_metrics()
    try:
        rc = exp_main(args.rest)
    finally:
        disable_global_metrics()
    write_metrics(args.metrics_out, registry)
    print(f"[metrics -> {args.metrics_out}]")
    return rc


def _dispatch(args) -> int:
    return {
        "info": cmd_info,
        "run": cmd_run,
        "plan": cmd_plan,
        "chaos": cmd_chaos,
        "serve": cmd_serve,
        "loadgen": cmd_loadgen,
        "conform": cmd_conform,
        "experiments": cmd_experiments,
    }[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
