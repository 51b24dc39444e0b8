"""Bounded-LRU cache of compiled redistribution plans.

The cache is keyed by the full :class:`~repro.core.plan.PlanKey` —
geometry, scheme knobs, machine profile, time domain, and the mask
fingerprint — so "same geometry, different mask" can never reuse stale
ranks: a flipped mask bit changes the fingerprint, which is a different
key, which is a miss.

Counters (hits / misses / evictions) are always tracked on the cache and
additionally mirrored into the process-global metrics registry
(``plan_cache.hit`` / ``plan_cache.miss`` / ``plan_cache.evict``) when
one is enabled, so ``repro experiments --metrics-out`` sees cache
behaviour without new plumbing.  The cache is lock-protected: the service layer
(ROADMAP) will share one across concurrent requests.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass

from .plan import Plan, PlanKey

__all__ = [
    "PlanCache",
    "PlanCacheStats",
    "default_plan_cache",
    "reset_default_plan_cache",
    "resolve_plan_cache",
]


def _global_metrics():
    from ..obs.registry import current_global_metrics

    return current_global_metrics()


@dataclass(frozen=True)
class PlanCacheStats:
    """Point-in-time cache counters."""

    hits: int
    misses: int
    evictions: int
    entries: int
    nbytes: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def describe(self) -> str:
        return (
            f"hits={self.hits} misses={self.misses} "
            f"evictions={self.evictions} entries={self.entries} "
            f"bytes={self.nbytes} hit_rate={self.hit_rate:.2%}"
        )


class PlanCache:
    """LRU cache of :class:`~repro.core.plan.Plan` bounded by entry count
    and (optionally) total plan bytes.

    ``capacity`` bounds the number of plans; ``max_bytes`` (when given)
    additionally evicts least-recently-used plans until the summed
    ``Plan.nbytes`` fits.  A single plan larger than ``max_bytes`` is
    still cached alone — refusing it would make the cache silently
    useless for big workloads.
    """

    def __init__(self, capacity: int = 32, max_bytes: int | None = None):
        if capacity < 1:
            raise ValueError(f"plan cache capacity must be >= 1, got {capacity}")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"plan cache max_bytes must be >= 1, got {max_bytes}")
        self.capacity = capacity
        self.max_bytes = max_bytes
        self._entries: OrderedDict[PlanKey, Plan] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ---------------------------------------------------------------- access
    def get(self, key: PlanKey) -> Plan | None:
        """Look up a plan; counts a hit or miss and refreshes recency."""
        with self._lock:
            plan = self._entries.get(key)
            if plan is not None:
                self._entries.move_to_end(key)
                self._hits += 1
            else:
                self._misses += 1
        m = _global_metrics()
        if m is not None:
            m.inc("plan_cache.hit" if plan is not None else "plan_cache.miss")
        return plan

    def put(self, key: PlanKey, plan: Plan) -> None:
        """Insert (or refresh) a plan, evicting LRU entries over budget."""
        evicted = 0
        with self._lock:
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
            if self.max_bytes is not None:
                while (len(self._entries) > 1
                       and self._nbytes_locked() > self.max_bytes):
                    self._entries.popitem(last=False)
                    evicted += 1
            self._evictions += evicted
        if evicted:
            m = _global_metrics()
            if m is not None:
                m.inc("plan_cache.evict", evicted)

    def peek(self, key: PlanKey) -> Plan | None:
        """Look up without touching recency or counters (introspection)."""
        with self._lock:
            return self._entries.get(key)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: PlanKey) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> list[PlanKey]:
        with self._lock:
            return list(self._entries.keys())

    # ----------------------------------------------------------- persistence
    SCHEMA = 1

    def save(self, path: str | os.PathLike) -> int:
        """Persist every cached plan to ``path`` as JSON; returns the count.

        Entries are written least-recently-used first, so :meth:`load` /
        :meth:`load_into` re-inserting them in file order reproduces the
        recency ranking.  The write goes through a same-directory temp
        file + ``os.replace`` so a crash mid-save never leaves a torn
        cache file for the next service start to choke on.
        """
        with self._lock:
            plans = [p.to_dict() for p in self._entries.values()]
        doc = {"schema": self.SCHEMA, "plans": plans}
        path = os.fspath(path)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as f:
            json.dump(doc, f)
        os.replace(tmp, path)
        return len(plans)

    def load_into(self, path: str | os.PathLike) -> int:
        """Merge the plans persisted at ``path`` into this cache; returns
        how many were inserted.  Normal LRU bounds apply, so loading more
        plans than ``capacity`` keeps only the most recent tail.

        Every entry is parsed and checked before any is inserted, so a
        file that fails to load (``ValueError``, ``KeyError`` or
        ``TypeError``) leaves the cache as it was."""
        with open(os.fspath(path)) as f:
            doc = json.load(f)
        schema = doc.get("schema") if isinstance(doc, dict) else None
        if schema != self.SCHEMA:
            raise ValueError(
                f"plan cache file {path!r}: unsupported schema {schema!r} "
                f"(expected {self.SCHEMA})"
            )
        plans = [Plan.from_dict(entry) for entry in doc["plans"]]
        for plan in plans:
            if plan.nprocs != plan.key.nprocs:
                raise ValueError(
                    f"plan cache file {path!r}: plan {plan.key.describe()} "
                    f"has {plan.nprocs} rank entries, expected "
                    f"{plan.key.nprocs}"
                )
        for plan in plans:
            self.put(plan.key, plan)
        return len(plans)

    @classmethod
    def load(
        cls, path: str | os.PathLike,
        capacity: int = 32, max_bytes: int | None = None,
    ) -> "PlanCache":
        """A fresh cache populated from a :meth:`save` file."""
        cache = cls(capacity=capacity, max_bytes=max_bytes)
        cache.load_into(path)
        return cache

    # ----------------------------------------------------------------- stats
    def _nbytes_locked(self) -> int:
        return sum(p.nbytes for p in self._entries.values())

    def stats(self) -> PlanCacheStats:
        with self._lock:
            return PlanCacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._entries),
                nbytes=self._nbytes_locked(),
            )

    def __repr__(self) -> str:
        return f"PlanCache({self.stats().describe()})"


# ------------------------------------------------------------- default cache
_DEFAULT: PlanCache | None = None
_DEFAULT_LOCK = threading.Lock()


def default_plan_cache() -> PlanCache:
    """The process-wide shared cache (``plan_cache=True`` / CLI
    ``--plan-cache on``), created on first use."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is None:
            _DEFAULT = PlanCache()
        return _DEFAULT


def reset_default_plan_cache() -> None:
    """Drop the process-wide cache (tests; fork hygiene)."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        _DEFAULT = None


def resolve_plan_cache(plan_cache) -> PlanCache | None:
    """Normalize the host-level ``plan_cache=`` argument.

    ``None`` / ``False`` / ``"off"`` → caching disabled (the default —
    seed behaviour); ``True`` / ``"on"`` / ``"default"`` → the shared
    :func:`default_plan_cache`; a :class:`PlanCache` instance → itself.
    """
    if plan_cache is None or plan_cache is False or plan_cache == "off":
        return None
    if plan_cache is True or plan_cache in ("on", "default"):
        return default_plan_cache()
    if isinstance(plan_cache, PlanCache):
        return plan_cache
    raise ValueError(
        f"plan_cache must be None/False/'off', True/'on'/'default' or a "
        f"PlanCache instance, got {plan_cache!r}"
    )
