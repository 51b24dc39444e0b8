"""Top-level command line: ``python -m repro <command>``.

Commands:

* ``info`` — library version, machine profiles, available schemes and PRS
  algorithms;
* ``pack`` — run one parallel PACK on the simulated machine and print the
  simulated phase times (a quick what-if tool);
* ``unpack`` — the same for UNPACK;
* ``trace`` — run a workload under the profiler and emit a Chrome-trace
  JSON (open in chrome://tracing or https://ui.perfetto.dev);
* ``metrics`` — run a workload with a metrics registry and print/export
  the snapshot;
* ``chaos`` — real-process chaos: seeded SIGKILL/SIGSTOP/poison faults
  against a supervised gang; every seed must recover to the bit-identical
  fault-free answer (exit 1 otherwise);
* ``plan`` — compile one workload's execution plan (the mask-dependent
  bookkeeping the plan cache stores), print its summary, optionally
  export the serialized plan or ``--repeat`` to demonstrate the cache
  hit.  See ``docs/plans.md``;
* ``conform`` — differential conformance fuzzing: seeded random
  configurations checked against the serial reference, failures shrunk to
  minimal repros (exit 1 on any failure); ``--corpus DIR`` also replays
  the regression corpus, and ``--backend mp`` replays it on the
  real-process backend.  See ``docs/conformance.md``;
* ``runtime`` — execution-backend smoke test: runs the primitive set
  (barrier, allreduce, exclusive prefix sum, m2m exchange, a send/recv ring)
  and a PACK/UNPACK round against the serial oracle on the chosen
  backend (exit 1 on any failure).  See ``docs/runtime.md``;
* ``profile`` — cross-rank runtime cost attribution: run an op under a
  :class:`~repro.obs.runtime.RuntimeProfiler` and print the
  phase-attribution table (what fraction of host wall is fork / pickle /
  queue-wait / compute under ``--backend mp``), validate the P×P
  communication matrix's conservation invariant, and optionally export
  the merged per-rank Chrome trace / matrix / profile JSON;
* ``experiments ...`` — delegate to :mod:`repro.experiments`.

``pack`` / ``unpack`` / ``trace`` / ``metrics`` accept ``--backend
{sim,mp}``: ``sim`` (default) runs on the deterministic cost simulator
and reports simulated times; ``mp`` runs one OS process per rank on real
cores and reports wall times.

Malformed geometry options (``--shape``, ``--grid``, ``--block``,
``--procs``) exit with status 2 and a one-line error, never a traceback.

``pack``/``unpack`` also accept ``--trace-out`` / ``--metrics-out`` /
``--report-out`` to capture observability artifacts from a normal run,
and ``experiments`` accepts ``--metrics-out`` (before the experiment
names) to snapshot the process-wide registry.  See
``docs/observability.md``.

Examples::

    python -m repro info
    python -m repro pack --n 65536 --procs 16 --block 8 --density 0.5
    python -m repro pack --n 65536 --procs 8 --backend mp
    python -m repro runtime --backend mp --procs 4
    python -m repro profile pack --backend mp -p 8 --trace-out pack.mp.trace.json
    python -m repro pack --shape 512x512 --grid 4x4 --block 4 --scheme sss
    python -m repro trace --nprocs 4 --n 1024 --block 8 --out pack.trace.json
    python -m repro metrics --op unpack --n 4096 --procs 8 --out m.json
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


def _make_profiler(args):
    """A PhaseProfiler when any observability output was requested."""
    wants = any(
        getattr(args, name, None)
        for name in ("trace_out", "metrics_out", "report_out")
    )
    if not wants:
        return None
    from .obs import PhaseProfiler

    return PhaseProfiler()


def _emit_observability(args, profiler) -> None:
    if profiler is None:
        return
    if getattr(args, "trace_out", None):
        n = profiler.write_chrome_trace(args.trace_out)
        print(f"[trace: {n} events -> {args.trace_out}]")
    if getattr(args, "metrics_out", None):
        profiler.write_metrics(args.metrics_out)
        print(f"[metrics -> {args.metrics_out}]")
    if getattr(args, "report_out", None):
        profiler.report.to_json(args.report_out)
        print(f"[report -> {args.report_out}]")


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


def cmd_pack(args) -> int:
    from .core.api import pack

    array, mask, grid, block = _workload(args)
    profiler = _make_profiler(args)
    result = pack(
        array, mask, grid=grid, block=block, scheme=args.scheme,
        spec=_build_spec(args), redistribute=args.redistribute,
        validate=not args.no_validate, profiler=profiler,
        backend=args.backend, plan_cache=_plan_cache_arg(args),
    )
    print(f"PACK {array.shape} on grid {grid}, block {block}, "
          f"scheme {args.scheme}: Size = {result.size}")
    _print_plan_info(result)
    if args.backend != "sim":
        print(f"  backend {args.backend}: one OS process per rank, "
              f"{result.time_domain}-clock times")
    print(f"  total {result.total_ms:9.3f} ms   local {result.local_ms:9.3f} ms")
    print(f"  prs   {result.prs_ms:9.3f} ms   m2m   {result.m2m_ms:9.3f} ms")
    if args.phases:
        for name, t in sorted(result.times.items()):
            print(f"    {name:<40s} {t:9.3f} ms")
    _emit_observability(args, profiler)
    return 0


def cmd_unpack(args) -> int:
    from .core.api import unpack

    array, mask, grid, block = _workload(args)
    size = int(mask.sum())
    rng = np.random.default_rng(args.seed + 1)
    profiler = _make_profiler(args)
    result = unpack(
        rng.random(size), mask, array, grid=grid, block=block,
        scheme=args.scheme if args.scheme in ("sss", "css") else "css",
        spec=_build_spec(args), validate=not args.no_validate,
        profiler=profiler, backend=args.backend,
        plan_cache=_plan_cache_arg(args),
    )
    print(f"UNPACK into {array.shape} on grid {grid}, block {block}: "
          f"Size = {result.size}")
    _print_plan_info(result)
    if args.backend != "sim":
        print(f"  backend {args.backend}: one OS process per rank, "
              f"{result.time_domain}-clock times")
    print(f"  total {result.total_ms:9.3f} ms   local {result.local_ms:9.3f} ms")
    print(f"  prs   {result.prs_ms:9.3f} ms   m2m   {result.m2m_ms:9.3f} ms")
    _emit_observability(args, profiler)
    return 0


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
    from .core.api import pack, ranking, unpack
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

    def run():
        if args.op == "pack":
            return pack(array, mask, scheme=args.scheme, **common)
        if args.op == "unpack":
            rng = np.random.default_rng(args.seed + 1)
            return unpack(
                rng.random(int(mask.sum())), mask, array,
                scheme=args.scheme if args.scheme in ("sss", "css") else "css",
                **common,
            )
        return ranking(
            mask, scheme=args.scheme if args.scheme in ("sss", "css") else "css",
            **common,
        )

    result = run()
    key = cache.keys()[-1]  # LRU order: the key this run used is last
    plan = cache.peek(key)
    print(plan.summary())
    print(f"  key: {key.describe()}")
    info = result.plan_info or {}
    print(f"  compile: {info.get('compile_ms') or 0.0:.3f} ms wall "
          f"(status {info.get('cache', '?')})")
    if args.repeat:
        again = run()
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


def _run_observed(args):
    """Run the selected op under a PhaseProfiler (trace/metrics commands)."""
    from .core.api import pack, ranking, unpack
    from .obs import PhaseProfiler

    array, mask, grid, block = _workload(args)
    spec = _build_spec(args)
    profiler = PhaseProfiler()
    plan_cache = _plan_cache_arg(args)
    op = args.op
    if op == "pack":
        result = pack(
            array, mask, grid=grid, block=block, scheme=args.scheme,
            spec=spec, validate=not args.no_validate, profiler=profiler,
            backend=args.backend, plan_cache=plan_cache,
        )
    elif op == "unpack":
        rng = np.random.default_rng(args.seed + 1)
        result = unpack(
            rng.random(int(mask.sum())), mask, array, grid=grid, block=block,
            scheme=args.scheme if args.scheme in ("sss", "css") else "css",
            spec=spec, validate=not args.no_validate, profiler=profiler,
            backend=args.backend, plan_cache=plan_cache,
        )
    else:
        result = ranking(
            mask, grid=grid, block=block, spec=spec,
            validate=not args.no_validate, profiler=profiler,
            backend=args.backend, plan_cache=plan_cache,
        )
    return profiler, result


def cmd_trace(args) -> int:
    profiler, result = _run_observed(args)
    n = profiler.write_chrome_trace(args.out)
    report = profiler.report
    print(f"{args.op}: ranks={report.nprocs} Size = {result.size}  "
          f"elapsed {report.elapsed_ms:.3f} ms ({report.time_domain})")
    print(f"[trace: {n} events, {len(profiler.tracer)} simulator records "
          f"-> {args.out}]")
    print("open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def cmd_metrics(args) -> int:
    from .analysis.reporting import format_metrics

    profiler, result = _run_observed(args)
    snapshot = profiler.metrics.snapshot()
    print(format_metrics(
        snapshot, title=f"{args.op}: Size = {result.size}"
    ))
    if args.out:
        profiler.write_metrics(args.out)
        print(f"[metrics -> {args.out}]")
    if args.report_out:
        profiler.report.to_json(args.report_out)
        print(f"[report -> {args.report_out}]")
    return 0


def cmd_profile(args) -> int:
    """Cross-rank runtime cost attribution: where does the host time go?

    Runs the op under a :class:`~repro.obs.runtime.RuntimeProfiler`,
    prints the phase-attribution table, validates the communication
    matrix's conservation invariant (row sums == sends, column sums ==
    receives — exit 1 on violation), and optionally exports the merged
    per-rank Chrome trace, the P×P matrix and the full profile JSON.
    """
    import json

    from .core.api import pack, ranking, unpack
    from .obs.runtime import RuntimeProfiler
    from .runtime import MpBackend, get_backend

    array, mask, grid, block = _workload(args)
    spec = _build_spec(args)
    if args.backend == "mp":
        backend = MpBackend(timeout=args.timeout,
                            transport=getattr(args, "transport", None))
    else:
        backend = get_backend(args.backend)
    profiler = RuntimeProfiler(ring_capacity=args.ring_capacity)
    if args.op == "pack":
        result = pack(
            array, mask, grid=grid, block=block, scheme=args.scheme,
            spec=spec, validate=not args.no_validate, profile=profiler,
            backend=backend,
        )
    elif args.op == "unpack":
        rng = np.random.default_rng(args.seed + 1)
        result = unpack(
            rng.random(int(mask.sum())), mask, array, grid=grid, block=block,
            scheme=args.scheme if args.scheme in ("sss", "css") else "css",
            spec=spec, validate=not args.no_validate, profile=profiler,
            backend=backend,
        )
    else:
        result = ranking(
            mask, grid=grid, block=block, spec=spec,
            validate=not args.no_validate, profile=profiler, backend=backend,
        )
    profile = profiler.profile
    print(f"{args.op}: Size = {result.size}")
    print(profile.summary())
    if profile.dropped_events:
        print(f"  [ring overflow: {profile.dropped_events} spans dropped "
              f"from the trace; attribution table is still exact — "
              f"raise --ring-capacity]")
    try:
        profile.validate_conservation()
        print(f"  comm matrix: conservation OK "
              f"(row sums == sends, column sums == receives)")
    except ValueError as exc:
        print(f"FAIL: comm matrix conservation violated: {exc}")
        return 1
    if args.trace_out:
        n = profile.write_chrome_trace(args.trace_out)
        print(f"[trace: {n} events ({profile.nprocs} rank lanes + gang lane) "
              f"-> {args.trace_out}]")
    if args.matrix_out:
        with open(args.matrix_out, "w") as fh:
            json.dump(profile.matrix_dict(), fh, indent=2)
        print(f"[comm matrix -> {args.matrix_out}]")
    if args.report_out:
        profile.to_json(args.report_out)
        print(f"[profile report -> {args.report_out}]")
    return 0


def cmd_runtime(args) -> int:
    """Execution-backend smoke test: the SPMD primitive set plus one
    PACK/UNPACK round against the serial oracle, on the chosen backend."""
    from .core.api import pack, unpack
    from .machine.m2m import exchange
    from .runtime import (
        MpBackend, allreduce, barrier, exclusive_prefix_sum, get_backend,
    )
    from .workloads import make_mask

    # Run mp gangs under a wall-clock budget: a transport regression must
    # fail the smoke test, not hang it.
    transport = getattr(args, "transport", None)
    if args.backend == "mp":
        backend = MpBackend(timeout=args.timeout, transport=transport)
    elif args.backend == "supervised":
        from .runtime import GangSupervisor

        backend = GangSupervisor(timeout=args.timeout, transport=transport)
    else:
        backend = get_backend(args.backend)
    nprocs = args.procs
    if nprocs < 1:
        raise CLIError(f"--procs must be >= 1, got {nprocs}")
    n = 512 if args.quick else args.n
    via = (f" transport={backend.transport}"
           if args.backend in ("mp", "supervised") else "")
    print(f"runtime smoke: backend={backend.name} "
          f"({backend.time_domain} time),{via} P={nprocs}")
    failures: list[str] = []

    def program(ctx, payload):
        ctx.phase("primitives")
        yield from barrier(ctx)
        total = yield from allreduce(ctx, ctx.rank + 1)
        offset = yield from exclusive_prefix_sum(ctx, ctx.rank + 1)
        ring = ctx.rank
        if ctx.size > 1:
            ctx.send((ctx.rank + 1) % ctx.size,
                     np.array([ctx.rank], dtype=np.int64), tag=7)
            msg = yield ctx.recv((ctx.rank - 1) % ctx.size, 7)
            ring = int(np.asarray(msg.payload)[0])
        outgoing = {q: np.full(q + 1, ctx.rank, dtype=np.int64)
                    for q in range(ctx.size) if q != ctx.rank}
        incoming = yield from exchange(ctx, outgoing)
        return {
            "total": total,
            "offset": offset,
            "ring": ring,
            "a2a": {int(q): np.asarray(block).copy()
                    for q, block in incoming.items()},
            "payload_sum": float(np.asarray(payload).sum()),
        }

    run = backend.run_spmd(
        program, nprocs,
        make_rank_args=lambda r, sh: (np.full(4, float(r)),),
    )
    for r, res in enumerate(run.results):
        if res["total"] != nprocs * (nprocs + 1) // 2:
            failures.append(f"rank {r}: allreduce -> {res['total']}")
        if res["offset"] != r * (r + 1) // 2:
            failures.append(f"rank {r}: exclusive_prefix_sum -> {res['offset']}")
        if res["ring"] != (r - 1) % nprocs:
            failures.append(f"rank {r}: ring recv -> {res['ring']}")
        for q, block in res["a2a"].items():
            if not np.array_equal(block, np.full(r + 1, q, dtype=np.int64)):
                failures.append(f"rank {r}: exchange block from {q} wrong")
        if res["payload_sum"] != 4.0 * r:
            failures.append(f"rank {r}: scattered payload wrong")
    print(f"  primitives: barrier/allreduce/xprefix/ring/exchange on "
          f"{nprocs} rank(s), elapsed {run.elapsed * 1e3:.3f} ms "
          f"({run.time_domain})")

    rng = np.random.default_rng(args.seed)
    array = rng.random(n)
    mask = make_mask((n,), args.density, seed=args.seed)
    try:
        packed = pack(array, mask, grid=(nprocs,), scheme="cms",
                      validate=True, backend=backend)
        restored = unpack(packed.vector, mask, array, grid=(nprocs,),
                          scheme="css", validate=True, backend=backend)
        if not np.array_equal(restored.array, array):
            failures.append("pack/unpack round trip is not the identity")
        print(f"  pack   n={n}: Size={packed.size}  "
              f"total {packed.total_ms:9.3f} ms ({packed.time_domain})")
        print(f"  unpack n={n}: oracle-exact round trip  "
              f"total {restored.total_ms:9.3f} ms ({restored.time_domain})")
    except Exception as exc:  # noqa: BLE001 - report, don't traceback
        failures.append(f"pack/unpack: {type(exc).__name__}: {exc}")

    if args.backend == "supervised":
        st = backend.stats
        print(f"  supervisor: gang epoch {st.gang_epoch}, "
              f"ops {st.ops} ({st.warm_ops} warm / {st.cold_ops} cold), "
              f"retries {st.retries}, rebuilds {st.rebuilds}, "
              f"fallbacks {st.fallbacks}")
        if st.fallbacks:
            failures.append(
                f"supervisor degraded to the simulator {st.fallbacks} "
                f"time(s): the real-process gang is not healthy")
        backend.shutdown()  # reap the warm gang: leak checks diff /dev/shm

    if failures:
        print(f"FAIL: {len(failures)} check(s) failed:")
        for line in failures:
            print(f"  {line}")
        return 1
    print(f"OK: backend {backend.name} primitives + PACK/UNPACK "
          f"oracle-correct at P={nprocs}")
    return 0


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


def _add_observability_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace-out", dest="trace_out",
                   help="write a Chrome-trace JSON of the run")
    p.add_argument("--metrics-out", dest="metrics_out",
                   help="write the metrics snapshot (.json or .csv)")
    p.add_argument("--report-out", dest="report_out",
                   help="write the structured RunReport JSON")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="library and machine information")

    p_pack = sub.add_parser("pack", help="run one simulated PACK")
    _add_workload_args(p_pack)
    _add_observability_args(p_pack)
    p_pack.add_argument("--redistribute", choices=("selected", "whole"))
    p_pack.add_argument("--phases", action="store_true", help="print all phases")

    p_unpack = sub.add_parser("unpack", help="run one simulated UNPACK")
    _add_workload_args(p_unpack)
    _add_observability_args(p_unpack)

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

    p_trace = sub.add_parser(
        "trace", help="run a workload and emit a Chrome-trace JSON"
    )
    _add_workload_args(p_trace)
    p_trace.add_argument("--op", default="pack",
                         choices=("pack", "unpack", "ranking"))
    p_trace.add_argument("--out", default="repro.trace.json",
                         help="output trace file (Chrome trace_event JSON)")

    p_metrics = sub.add_parser(
        "metrics", help="run a workload and print/export the metrics snapshot"
    )
    _add_workload_args(p_metrics)
    p_metrics.add_argument("--op", default="pack",
                           choices=("pack", "unpack", "ranking"))
    p_metrics.add_argument("--out", help="write snapshot (.json or .csv)")
    p_metrics.add_argument("--report-out", dest="report_out",
                           help="also write the structured RunReport JSON")

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

    p_profile = sub.add_parser(
        "profile",
        help="cross-rank runtime cost attribution: phase table, per-rank "
             "trace lanes and P×P communication matrix on either backend",
    )
    p_profile.add_argument("op", nargs="?", default="pack",
                           choices=("pack", "unpack", "ranking"),
                           help="operation to profile (default: pack)")
    _add_workload_args(p_profile)
    p_profile.add_argument("--timeout", type=float, default=300.0,
                           help="wall-clock budget per mp gang in seconds")
    p_profile.add_argument("--transport", default=None,
                           choices=("queue", "ring"),
                           help="mp message transport (default: "
                                "$REPRO_MP_TRANSPORT, then ring)")
    p_profile.add_argument("--ring-capacity", type=int, default=8192,
                           dest="ring_capacity",
                           help="per-rank span ring-buffer capacity (mp)")
    p_profile.add_argument("--trace-out", dest="trace_out",
                           help="write the merged per-rank Chrome trace "
                                "(one lane per rank + a gang lane)")
    p_profile.add_argument("--matrix-out", dest="matrix_out",
                           help="write the P×P msgs/bytes matrix JSON")
    p_profile.add_argument("--report-out", dest="report_out",
                           help="write the full RunProfile JSON")

    p_runtime = sub.add_parser(
        "runtime",
        help="execution-backend smoke test: SPMD primitives plus one "
             "PACK/UNPACK round against the serial oracle",
    )
    p_runtime.add_argument("--backend", default="mp",
                           choices=("sim", "mp", "supervised"),
                           help="backend to smoke-test (default: mp)")
    p_runtime.add_argument("--procs", type=int, default=4,
                           help="number of ranks (OS processes under mp)")
    p_runtime.add_argument("--n", type=int, default=4096,
                           help="1-D array size for the PACK/UNPACK round")
    p_runtime.add_argument("--density", type=float, default=0.5)
    p_runtime.add_argument("--seed", type=int, default=0)
    p_runtime.add_argument("--quick", action="store_true",
                           help="small workload (n=512) for CI smoke")
    p_runtime.add_argument("--timeout", type=float, default=120.0,
                           help="wall-clock budget per mp gang in seconds")
    p_runtime.add_argument("--transport", default=None,
                           choices=("queue", "ring"),
                           help="mp message transport (default: "
                                "$REPRO_MP_TRANSPORT, then ring)")

    p_exp = sub.add_parser("experiments", help="regenerate paper artifacts")
    p_exp.add_argument("--metrics-out", dest="metrics_out",
                       help="snapshot the process-wide metrics registry "
                            "after the experiments finish (place before "
                            "the experiment names)")
    p_exp.add_argument("rest", nargs=argparse.REMAINDER)

    from .runtime.base import BackendError

    args = parser.parse_args(argv)
    try:
        return _dispatch(args, parser)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, BackendError) as exc:
        # Library-level validation (bad dist/grid/block geometry, paper
        # divisibility, simulator-only feature on another backend): a
        # user-input problem, not a crash — one line.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args, parser) -> int:
    if args.command == "info":
        return cmd_info(args)
    if args.command == "pack":
        return cmd_pack(args)
    if args.command == "unpack":
        return cmd_unpack(args)
    if args.command == "chaos":
        return cmd_chaos(args)
    if args.command == "plan":
        return cmd_plan(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "loadgen":
        return cmd_loadgen(args)
    if args.command == "conform":
        return cmd_conform(args)
    if args.command == "profile":
        return cmd_profile(args)
    if args.command == "runtime":
        return cmd_runtime(args)
    if args.command == "trace":
        return cmd_trace(args)
    if args.command == "metrics":
        return cmd_metrics(args)
    if args.command == "experiments":
        from .experiments.__main__ import main as exp_main

        if args.metrics_out:
            from .obs import enable_global_metrics, disable_global_metrics
            from .obs.exporters import write_metrics

            registry = enable_global_metrics()
            try:
                rc = exp_main(args.rest)
            finally:
                disable_global_metrics()
            write_metrics(args.metrics_out, registry)
            print(f"[metrics -> {args.metrics_out}]")
            return rc
        return exp_main(args.rest)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2


if __name__ == "__main__":
    sys.exit(main())
