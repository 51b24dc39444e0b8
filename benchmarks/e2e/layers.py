"""Per-layer metrics from recorded spans, and the Chrome trace.

A *unit* is what the client waited for: one library call, or one service
request.  Each unit's latency is split into the self time of every layer
that worked on it plus a ``client`` residual (see :func:`stats.shares`),
so a unit's shares add up to 1.0.  A coalesced batch's execution tree is
charged in full to every request in the batch: each of them waited for
all of it.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Iterable, Sequence

from . import stats
from .tracing import LAYER_OF, LAYERS

SID, PARENT, NAME, T0, T1, TID, ATTRS = range(7)

#: Per-layer metrics that only a service workload can produce.
SERVE_ONLY = (
    "serve.protocol.decode_us_p50", "serve.protocol.encode_us_p50",
    "serve.protocol.bytes_in_mean", "serve.protocol.bytes_out_mean",
    "serve.batcher.queue_ms_p50", "serve.batcher.queue_ms_p99",
    "serve.batcher.batch_size_mean", "serve.batcher.coalesced_fraction",
    "serve.admission.shed_ratio", "serve.engine.execute_ms_p50",
    "serve.engine.busy_fraction", "client.lag_p99_ms",
)


class SpanForest:
    """Spans of one process, indexed by parent."""

    def __init__(self, spans: Sequence[list]):
        self.spans = sorted(spans, key=lambda s: s[T0])
        self.children: dict[int, list[list]] = defaultdict(list)
        ids = {s[SID] for s in spans}
        self.roots = []
        for s in self.spans:
            if s[PARENT] is not None and s[PARENT] in ids:
                self.children[s[PARENT]].append(s)
            else:
                self.roots.append(s)

    def self_time(self, s: list) -> float:
        return stats.self_time(
            s[T0], s[T1], ((c[T0], c[T1]) for c in self.children[s[SID]])
        )

    def layer_self(self, root: list, into: dict | None = None) -> dict:
        """Self seconds per layer over ``root``'s subtree."""
        out = into if into is not None else defaultdict(float)
        todo = [root]
        while todo:
            s = todo.pop()
            out[LAYER_OF[s[NAME]]] += self.self_time(s)
            todo.extend(self.children[s[SID]])
        return out

    def named(self, prefix: str, lo: float, hi: float) -> list[list]:
        return [s for s in self.spans
                if s[NAME].startswith(prefix) and lo <= s[T0] < hi]


def _p(values: Sequence[float], pct: float, scale: float = 1.0) -> float:
    """Percentile for a per-layer metric; 0.0 when the layer did no work."""
    values = list(values)
    if not values:
        return 0.0
    return stats.percentile(values, pct, strict=False) * scale


def _dur(spans: Iterable[list]) -> list[float]:
    return [s[T1] - s[T0] for s in spans]


def _common(forest: SpanForest, lo: float, hi: float, exit_stats: dict,
            units: list[dict]) -> dict:
    """Metrics computed the same way for library and service runs."""
    out: dict[str, float] = {}
    gets = forest.named("core.plan_cache.get", lo, hi)
    out["core.plan_cache.hit_ratio"] = (
        sum(1 for s in gets if s[ATTRS]["hit"]) / len(gets) if gets else 0.0
    )
    out["core.plan_cache.get_us_p50"] = _p(_dur(gets), 50, 1e6)
    compiles = [s[ATTRS]["compile_ms"] for s in forest.spans
                if s[NAME].startswith("core.api.") and s[ATTRS]
                and s[ATTRS].get("cache") == "miss"]
    out["core.plan_cache.compile_ms_p50"] = _p(compiles, 50)
    out["core.plan_cache.nbytes"] = float(exit_stats["plan_cache_nbytes"])
    lc = exit_stats["layout_cache"]
    out["hpf.layout_cache_hit_ratio"] = (
        lc["hits"] / (lc["hits"] + lc["misses"])
        if lc["hits"] + lc["misses"] else 0.0
    )
    runs = forest.named("runtime.", lo, hi)
    out["runtime.run_spmd_ms_p50"] = _p(_dur(runs), 50, 1e3)
    out["runtime.run_spmd_ms_p99"] = _p(_dur(runs), 99, 1e3)
    for k, v in exit_stats["supervisor"].items():
        out[f"runtime.supervisor.{k}"] = float(v)
    out["machine.run_ms_p50"] = _p(_dur(forest.named("machine.", lo, hi)),
                                   50, 1e3)
    sim = [s[ATTRS]["elapsed"] for s in runs if s[ATTRS]
           and s[ATTRS]["domain"] == "simulated"]
    out["machine.sim_ms_mean"] = stats.mean(sim) * 1e3
    out["machine.messages_mean"] = stats.mean(
        s[ATTRS]["messages"] for s in runs if s[ATTRS])
    out["machine.words_mean"] = stats.mean(
        s[ATTRS]["words"] for s in runs if s[ATTRS])
    for layer in ("core.api", "serve.engine", "hpf", "runtime"):
        out[f"{layer}.self_ms_p50"] = _p(
            [u["parts"].get(layer, 0.0) for u in units], 50, 1e3)
    mean = stats.mean_shares([u["shares"] for u in units])
    for layer in LAYERS + ("client",):
        out[f"{layer}.share"] = mean.get(layer, 0.0)
    out["client.transit_ms_p50"] = _p([u["transit"] for u in units], 50, 1e3)
    return out


def _unit(total: float, parts: dict, lag: float = 0.0) -> dict:
    parts = {k: v for k, v in parts.items() if v}
    sh = stats.shares(total, parts, "client")
    return {"parts": parts, "shares": sh,
            "transit": total - lag - sum(parts.values())}


def lib_metrics(spans: Sequence[list], calls: Sequence[tuple[float, float]],
                exit_stats: dict, span_cost: float) -> tuple[dict, dict]:
    """Per-layer metrics of a library run.  ``calls`` are the timed calls'
    ``(start, end)`` as the benchmark measured them."""
    forest = SpanForest(spans)
    lo, hi = calls[0][0], calls[-1][1]
    roots = [s for s in forest.roots
             if s[NAME].startswith("core.api.") and lo <= s[T0] < hi]
    if len(roots) != len(calls):
        raise RuntimeError(
            f"{len(calls)} timed calls but {len(roots)} traced api spans")
    units = [_unit(t1 - t0, forest.layer_self(root))
             for (t0, t1), root in zip(calls, roots)]
    out = {name: 0.0 for name in SERVE_ONLY}
    out.update(_common(forest, lo, hi, exit_stats, units))
    in_window = sum(1 for s in forest.spans if lo <= s[T0] < hi)
    busy = sum(t1 - t0 for t0, t1 in calls)
    out["trace.overhead_pct"] = 100.0 * in_window * span_cost / busy
    return out, {"units": len(units), "spans": in_window}


def serve_metrics(spans: Sequence[list], records: Sequence[dict],
                  window: tuple[float, float], full: tuple[float, float],
                  exit_stats: dict, span_cost: float,
                  client: dict) -> tuple[dict, dict]:
    """Per-layer metrics of a service run.

    ``records`` are the open-loop phase's answered requests (client-side
    ``rid``, ``t_due``, ``t_send``, ``t_recv`` and the response's
    ``queue_ms``); ``window`` is that phase, ``full`` every timed phase.
    ``client`` carries the client-side counters (bytes, shed ratio, batch
    occupancy) that an untraced run reports as well.
    """
    forest = SpanForest(spans)
    lo, hi = window
    decode, encode, execute = {}, {}, defaultdict(list)
    for s in forest.roots:
        rids = (s[ATTRS] or {}).get("rids", ())
        for rid in rids:
            if s[NAME] == "serve.protocol.decode":
                decode[rid] = s
            elif s[NAME] == "serve.protocol.encode":
                encode[rid] = s
            elif s[NAME] == "serve.engine.execute":
                execute[rid].append(s)
    units, unmatched = [], 0
    for r in records:
        rid = r["rid"]
        if rid not in decode or rid not in encode or not execute.get(rid):
            unmatched += 1
            continue
        parts = defaultdict(float)
        parts["serve.protocol"] = (forest.self_time(decode[rid])
                                   + forest.self_time(encode[rid]))
        parts["serve.batcher"] = r["queue_ms"] / 1e3
        for ex in execute[rid]:
            forest.layer_self(ex, parts)
        units.append(_unit(r["t_recv"] - r["t_due"], parts,
                           lag=r["t_send"] - r["t_due"]))
    if not units:
        raise RuntimeError("no open-loop request could be joined to its spans")
    open_exec = [s for rid, ss in execute.items() if rid.startswith("o")
                 for s in ss]
    out = _common(forest, lo, hi, exit_stats, units)
    out["serve.protocol.decode_us_p50"] = _p(
        _dur(s for rid, s in decode.items() if rid.startswith("o")), 50, 1e6)
    out["serve.protocol.encode_us_p50"] = _p(
        _dur(s for rid, s in encode.items() if rid.startswith("o")), 50, 1e6)
    out["serve.engine.execute_ms_p50"] = _p(
        _dur({s[SID]: s for s in open_exec}.values()), 50, 1e3)
    out["serve.engine.busy_fraction"] = stats.union_length(
        ((s[T0], s[T1]) for s in open_exec), lo, hi) / (hi - lo)
    for key in ("serve.protocol.bytes_in_mean", "serve.protocol.bytes_out_mean",
                "serve.batcher.queue_ms_p50", "serve.batcher.queue_ms_p99",
                "serve.batcher.batch_size_mean",
                "serve.batcher.coalesced_fraction",
                "serve.admission.shed_ratio", "client.lag_p99_ms"):
        out[key] = client[key]
    in_window = sum(1 for s in forest.spans if full[0] <= s[T0] < full[1])
    out["trace.overhead_pct"] = (
        100.0 * in_window * span_cost / (full[1] - full[0]))
    return out, {"units": len(units), "unmatched": unmatched,
                 "spans": in_window}


def chrome_trace(path, processes: Sequence[tuple[str, int, Sequence[list]]],
                 lo: float, hi: float) -> int:
    """Write spans starting in ``[lo, hi)`` as a Chrome trace; returns the
    event count.  ``processes`` is ``(label, pid, spans)`` per process."""
    events = []
    for label, pid, spans in processes:
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": label}})
        for s in spans:
            if not lo <= s[T0] < hi:
                continue
            ev = {"name": s[NAME], "cat": LAYER_OF.get(s[NAME], "client"),
                  "ph": "X", "ts": s[T0] * 1e6,
                  "dur": (s[T1] - s[T0]) * 1e6, "pid": pid, "tid": s[TID],
                  "args": {"sid": s[SID], "parent": s[PARENT]}}
            if s[ATTRS]:
                ev["args"].update(s[ATTRS])
            events.append(ev)
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
    return len(events)
