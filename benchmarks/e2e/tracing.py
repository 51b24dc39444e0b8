"""In-memory spans around the public entry points of each layer.

The benchmark never edits the program: :func:`install` replaces public
functions and methods of ``repro`` with wrappers that record one span
per call (name, start, end, parent span, thread, and attributes taken
from the arguments or result) and then call the original.  Spans stay
in memory and are written out when the traced process ends.

Only root spans carry request ids; a child finds its request by walking
up to its root.  Parents are tracked per thread, so the server's
executor threads each build their own trees.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
from time import perf_counter

#: Span name -> layer, for every span :func:`install` can produce.
LAYER_OF = {
    "serve.protocol.decode": "serve.protocol",
    "serve.protocol.encode": "serve.protocol",
    "serve.engine.execute": "serve.engine",
    "core.api.pack": "core.api",
    "core.api.unpack": "core.api",
    "core.api.ranking": "core.api",
    "core.api.pack_many": "core.api",
    "core.plan_cache.get": "core.plan_cache",
    "core.plan_cache.put": "core.plan_cache",
    "hpf.GridLayout.create": "hpf",
    "hpf.GridLayout.local_block": "hpf",
    "hpf.GridLayout.gather": "hpf",
    "hpf.VectorLayout.local_block": "hpf",
    "hpf.VectorLayout.gather": "hpf",
    "runtime.SimBackend.run_spmd": "runtime",
    "runtime.GangSupervisor.run_spmd": "runtime",
    "machine.Machine.run": "machine",
}
#: Layers below the client, in call order (shares are reported for each).
LAYERS = ("serve.protocol", "serve.batcher", "serve.engine", "core.api",
          "core.plan_cache", "hpf", "runtime", "machine")


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self):
        #: ``[sid, parent sid or None, name, t0, t1, thread id, attrs]``
        self.spans: list[list] = []
        self.objects: dict[int, object] = {}  # plan caches, supervisors
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, attrs=None, keep_self: bool = False):
        """Return ``fn`` wrapped to record a span named ``name``.

        ``attrs(args, kwargs, result)`` returns extra span attributes;
        ``keep_self`` remembers ``args[0]`` for end-of-run statistics.
        """
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack()
            parent = stack[-1] if stack else None
            sid = next(rec._ids)
            stack.append(sid)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                extra = None
                if attrs is not None:
                    try:
                        extra = attrs(args, kwargs, result)
                    except Exception as exc:  # a failed call has no result
                        extra = {"attr_error": type(exc).__name__}
                if keep_self and args:
                    rec.objects.setdefault(id(args[0]), args[0])
                rec.spans.append(
                    [sid, parent, name, t0, t1, threading.get_ident(), extra]
                )

        return traced

    def dump(self, path: str, **extra) -> None:
        doc = {"pid": os.getpid(), "spans": self.spans}
        doc.update(extra)
        tmp = f"{path}.tmp"
        with open(tmp, "w") as f:
            json.dump(doc, f, separators=(",", ":"))
        os.replace(tmp, path)


# ----------------------------------------------------------------- attributes
def _run_attrs(args, kwargs, run):
    return {
        "domain": run.time_domain,
        "elapsed": run.elapsed,
        "messages": run.total_messages,
        "words": run.total_words,
    }


def _plan_attrs(args, kwargs, res):
    info = getattr(res, "plan_info", None) or {}
    return {"cache": info.get("cache"), "compile_ms": info.get("compile_ms")}


def _get_attrs(args, kwargs, plan):
    return {"hit": plan is not None}


def _decode_attrs(args, kwargs, req):
    line = args[0] if args else kwargs.get("line")
    return {"rids": [req.id], "bytes": len(line)}


def _encode_attrs(args, kwargs, data):
    body = args[0] if args else kwargs.get("body")
    return {"rids": [body.get("id")], "bytes": len(data)}


def _execute_attrs(args, kwargs, bodies):
    reqs = args[1] if len(args) > 1 else kwargs.get("reqs")
    return {"rids": [r.id for r in reqs]}


# ---------------------------------------------------------------- installing
def _patch_function(rec: Recorder, module, attr: str, name: str, attrs=None):
    """Wrap a module-level function everywhere ``repro`` imported it."""
    orig = getattr(module, attr)
    traced = rec.wrap(name, orig, attrs)
    for mod_name, mod in list(sys.modules.items()):
        if (mod_name == "repro" or mod_name.startswith("repro.")) \
                and getattr(mod, attr, None) is orig:
            setattr(mod, attr, traced)


def _patch_method(rec: Recorder, cls, attr: str, name: str, attrs=None,
                  keep_self: bool = False):
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(rec.wrap(name, raw.__func__, attrs)))
    else:
        setattr(cls, attr, rec.wrap(name, raw, attrs, keep_self))


def install(rec: Recorder, serve: bool = False) -> None:
    """Wrap every traced entry point of ``repro`` (``serve`` adds the
    service layers).  Call before the program builds its objects: the
    server binds ``ExecutionEngine.execute`` when it starts."""
    from repro.core import api, multi
    from repro.core.plan_cache import PlanCache
    from repro.hpf.grid import GridLayout
    from repro.hpf.vector import VectorLayout
    from repro.machine.engine import Machine
    from repro.runtime.sim import SimBackend
    from repro.runtime.supervisor import GangSupervisor

    if serve:
        from repro.serve import protocol
        from repro.serve.engine import ExecutionEngine

        _patch_function(rec, protocol, "parse_request",
                        "serve.protocol.decode", _decode_attrs)
        _patch_function(rec, protocol, "encode_response",
                        "serve.protocol.encode", _encode_attrs)
        _patch_method(rec, ExecutionEngine, "execute",
                      "serve.engine.execute", _execute_attrs)
    for op in ("pack", "unpack", "ranking"):
        _patch_function(rec, api, op, f"core.api.{op}", _plan_attrs)
    _patch_function(rec, multi, "pack_many", "core.api.pack_many")
    _patch_method(rec, PlanCache, "get", "core.plan_cache.get", _get_attrs,
                  keep_self=True)
    _patch_method(rec, PlanCache, "put", "core.plan_cache.put",
                  keep_self=True)
    _patch_method(rec, GridLayout, "create", "hpf.GridLayout.create")
    for cls, attr in ((GridLayout, "local_block"), (GridLayout, "gather"),
                      (VectorLayout, "local_block"), (VectorLayout, "gather")):
        _patch_method(rec, cls, attr, f"hpf.{cls.__name__}.{attr}")
    _patch_method(rec, SimBackend, "run_spmd", "runtime.SimBackend.run_spmd",
                  _run_attrs)
    _patch_method(rec, GangSupervisor, "run_spmd",
                  "runtime.GangSupervisor.run_spmd", _run_attrs,
                  keep_self=True)
    _patch_method(rec, Machine, "run", "machine.Machine.run")


def span_cost(iterations: int = 20000) -> float:
    """Measured extra seconds one recorded span adds to a call."""
    def noop():
        return None

    traced = Recorder().wrap("calibrate", noop)
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        for _ in range(iterations):
            noop()
        t1 = perf_counter()
        for _ in range(iterations):
            traced()
        t2 = perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / iterations)
    return max(best, 0.0)


def exit_stats(rec: Recorder) -> dict:
    """End-of-run counters from the program's public stats."""
    from repro.core.plan_cache import PlanCache
    from repro.hpf.caches import layout_cache_stats
    from repro.runtime.supervisor import GangSupervisor

    caches = [o for o in rec.objects.values() if isinstance(o, PlanCache)]
    sups = [o for o in rec.objects.values() if isinstance(o, GangSupervisor)]
    layout = layout_cache_stats()
    return {
        "plan_cache_nbytes": sum(c.stats().nbytes for c in caches),
        "layout_cache": {
            "hits": sum(v["hits"] for v in layout.values()),
            "misses": sum(v["misses"] for v in layout.values()),
        },
        "supervisor": {
            k: sum(getattr(s.stats, k) for s in sups)
            for k in ("retries", "rebuilds", "cold_ops")
        },
    }
