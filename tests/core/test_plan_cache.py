"""The plan/execute split and the geometry-keyed plan cache.

The contract under test: a cache hit skips the mask-dependent compile
(ranking, send-vector derivation, rescan, and for UNPACK the whole
request exchange) yet the run is **bit-identical** to a cache-off run —
same result arrays, same simulated elapsed time, same per-phase
breakdown, same message-traffic counters.  The cache is a wall-clock
optimisation only; any observable difference is a bug.
"""

import types

import numpy as np
import pytest

from repro.core.api import pack, ranking, unpack
from repro.core.multi import pack_many
from repro.core.pack import _check_vector_geometry
from repro.core.plan import Plan, mask_fingerprint, plan_key
from repro.core.plan_cache import (
    PlanCache,
    default_plan_cache,
    reset_default_plan_cache,
    resolve_plan_cache,
)
from repro.core.schemes import PackConfig
from repro.hpf import GridLayout, VectorLayout
from repro.obs import MetricsRegistry, clear_layout_caches, layout_cache_stats
from repro.runtime.sim import SimBackend
from repro.serial.reference import mask_ranks, pack_reference, unpack_reference

N = 512
P = 4


def _workload(seed=0, n=N, density=0.5):
    rng = np.random.default_rng(seed)
    array = rng.random(n)
    mask = rng.random(n) < density
    return array, mask


def _run_equal(a, b):
    """Bit-identity of two runs: time, phases, traffic."""
    assert a.elapsed == b.elapsed
    assert a.phase_breakdown() == b.phase_breakdown()
    assert a.total_words == b.total_words
    assert a.total_messages == b.total_messages


# ------------------------------------------------------------- hit identity
def test_pack_hit_is_bit_identical_to_cache_off():
    array, mask = _workload()
    cache = PlanCache()
    off = pack(array, mask, P, scheme="cms", validate=False)
    miss = pack(array, mask, P, scheme="cms", validate=False, plan_cache=cache)
    hit = pack(array, mask, P, scheme="cms", validate=False, plan_cache=cache)

    assert off.plan_info is None
    assert miss.plan_info["cache"] == "miss"
    assert miss.plan_info["compile_ms"] > 0
    assert hit.plan_info["cache"] == "hit"
    assert hit.plan_info["compile_ms"] == 0.0
    assert hit.plan_info["fingerprint"] == miss.plan_info["fingerprint"]

    expected = pack_reference(array, mask)
    for r in (off, miss, hit):
        np.testing.assert_array_equal(r.vector, expected)
        assert r.size == int(mask.sum())
    _run_equal(off.run, miss.run)
    _run_equal(off.run, hit.run)


@pytest.mark.parametrize("scheme", ["sss", "css"])
def test_unpack_hit_is_bit_identical_to_cache_off(scheme):
    _, mask = _workload(seed=1)
    rng = np.random.default_rng(2)
    vector = rng.random(int(mask.sum()))
    field = np.full(mask.size, -1.0)
    cache = PlanCache()
    kw = dict(scheme=scheme, validate=False)
    off = unpack(vector, mask, field, P, **kw)
    miss = unpack(vector, mask, field, P, plan_cache=cache, **kw)
    hit = unpack(vector, mask, field, P, plan_cache=cache, **kw)

    assert miss.plan_info["cache"] == "miss"
    assert hit.plan_info["cache"] == "hit"
    assert hit.plan_info["compile_ms"] == 0.0

    expected = unpack_reference(vector, mask, field)
    for r in (off, miss, hit):
        np.testing.assert_array_equal(r.array, expected)
    _run_equal(off.run, miss.run)
    _run_equal(off.run, hit.run)


def test_ranking_hit_is_bit_identical_to_cache_off():
    _, mask = _workload(seed=3)
    cache = PlanCache()
    off = ranking(mask, P, validate=False)
    miss = ranking(mask, P, validate=False, plan_cache=cache)
    hit = ranking(mask, P, validate=False, plan_cache=cache)

    assert miss.plan_info["cache"] == "miss"
    assert hit.plan_info["cache"] == "hit"
    expected = mask_ranks(mask)
    for r in (off, miss, hit):
        np.testing.assert_array_equal(r.ranks, expected)
    _run_equal(off.run, miss.run)
    _run_equal(off.run, hit.run)


def test_hit_with_different_array_same_mask():
    """The plan depends on the mask and geometry, never on the values."""
    a1, mask = _workload(seed=4)
    a2 = np.arange(N, dtype=np.float64)
    cache = PlanCache()
    pack(a1, mask, P, validate=False, plan_cache=cache)
    hit = pack(a2, mask, P, validate=False, plan_cache=cache)
    assert hit.plan_info["cache"] == "hit"
    np.testing.assert_array_equal(hit.vector, pack_reference(a2, mask))


# --------------------------------------------------------- cache coherency
def test_flipped_mask_bit_misses_never_stale():
    array, mask = _workload(seed=5)
    cache = PlanCache()
    pack(array, mask, P, validate=False, plan_cache=cache)

    flipped = mask.copy()
    flipped[N // 3] = not flipped[N // 3]
    assert mask_fingerprint(flipped) != mask_fingerprint(mask)
    r = pack(array, flipped, P, validate=False, plan_cache=cache)
    assert r.plan_info["cache"] == "miss"
    np.testing.assert_array_equal(r.vector, pack_reference(array, flipped))


def test_different_geometry_misses():
    array, mask = _workload(seed=6)
    cache = PlanCache()
    pack(array, mask, P, scheme="cms", validate=False, plan_cache=cache)
    for kw in (
        dict(scheme="sss"),
        dict(scheme="cms", result_block=8),
        dict(scheme="cms", m2m_schedule="direct"),
    ):
        r = pack(array, mask, P, validate=False, plan_cache=cache, **kw)
        assert r.plan_info["cache"] == "miss", kw
        np.testing.assert_array_equal(r.vector, pack_reference(array, mask))
    assert cache.stats().hits == 0


def test_ops_do_not_share_entries():
    """A pack plan must never serve unpack or ranking with the same mask."""
    array, mask = _workload(seed=7)
    vector = np.arange(int(mask.sum()), dtype=np.float64)
    cache = PlanCache()
    pack(array, mask, P, scheme="css", validate=False, plan_cache=cache)
    u = unpack(vector, mask, array, P, scheme="css", validate=False,
               plan_cache=cache)
    k = ranking(mask, P, scheme="css", validate=False, plan_cache=cache)
    assert u.plan_info["cache"] == "miss"
    assert k.plan_info["cache"] == "miss"
    assert cache.stats().hits == 0
    assert len(cache) == 3


# ----------------------------------------------------------- gang sharing
def test_gang_pack_shares_plan_with_solo_pack():
    array, mask = _workload(seed=9)
    others = [np.arange(N, dtype=np.float64), -array]
    cache = PlanCache()

    solo = pack(array, mask, P, scheme="cms", validate=False, plan_cache=cache)
    assert solo.plan_info["cache"] == "miss"
    vectors = pack_many([array] + others, mask, P, scheme="cms",
                        validate=False, plan_cache=cache).vectors
    assert cache.stats().hits == 1  # the gang replayed the solo plan
    for arr, vec in zip([array] + others, vectors):
        np.testing.assert_array_equal(vec, pack_reference(arr, mask))

    # And the reverse: a plan the gang compiled serves solo PACK.
    _, mask2 = _workload(seed=10)
    pack_many([array], mask2, P, scheme="cms", validate=False,
              plan_cache=cache)
    r = pack(array, mask2, P, scheme="cms", validate=False, plan_cache=cache)
    assert r.plan_info["cache"] == "hit"
    np.testing.assert_array_equal(r.vector, pack_reference(array, mask2))


# ------------------------------------------------------- cache mechanics
def test_lru_eviction_and_stats():
    array, _ = _workload()
    cache = PlanCache(capacity=2)
    masks = [np.arange(N) % k == 0 for k in (2, 3, 5)]
    for m in masks:
        pack(array, m, P, validate=False, plan_cache=cache)
    s = cache.stats()
    assert len(cache) == 2
    assert (s.misses, s.evictions) == (3, 1)
    # The first mask's entry was the LRU victim: it misses again.
    r = pack(array, masks[0], P, validate=False, plan_cache=cache)
    assert r.plan_info["cache"] == "miss"
    # The most recent one still hits.
    r = pack(array, masks[2], P, validate=False, plan_cache=cache)
    assert r.plan_info["cache"] == "hit"


def test_default_cache_resolution():
    reset_default_plan_cache()
    try:
        assert resolve_plan_cache(None) is None
        assert resolve_plan_cache(False) is None
        assert resolve_plan_cache("off") is None
        assert resolve_plan_cache(True) is default_plan_cache()
        assert resolve_plan_cache("on") is default_plan_cache()
        own = PlanCache()
        assert resolve_plan_cache(own) is own
        with pytest.raises(ValueError):
            resolve_plan_cache("bogus")
    finally:
        reset_default_plan_cache()


def test_plan_serialization_roundtrip():
    array, mask = _workload(seed=11)
    cache = PlanCache()
    pack(array, mask, P, validate=False, plan_cache=cache)
    vector = np.arange(int(mask.sum()), dtype=np.float64)
    unpack(vector, mask, array, P, scheme="css", validate=False,
           plan_cache=cache)
    ranking(mask, P, validate=False, plan_cache=cache)
    for key in cache.keys():
        plan = cache.peek(key)
        doc = plan.to_dict()
        again = Plan.from_dict(doc)
        assert again.to_dict() == doc
        assert again.nprocs == plan.nprocs
        assert again.key == plan.key


def test_plan_metrics_counters():
    array, mask = _workload(seed=12)
    cache = PlanCache()
    reg = MetricsRegistry()
    pack(array, mask, P, validate=False, plan_cache=cache, metrics=reg)
    pack(array, mask, P, validate=False, plan_cache=cache, metrics=reg)
    assert reg.value("plan_cache.miss") == 1
    assert reg.value("plan_cache.hit") == 1
    hist = reg.get("plan.compile_ms")
    assert hist is not None and hist.count == 2


def test_gang_plan_metrics_counters():
    array, mask = _workload(seed=13)
    cache = PlanCache()
    reg = MetricsRegistry()
    first = pack_many([array, -array], mask, P, validate=False,
                      plan_cache=cache, metrics=reg)
    assert reg.value("plan_cache.miss") == 1
    assert reg.value("plan_cache.hit") == 0
    second = pack_many([array, -array], mask, P, validate=False,
                       plan_cache=cache, metrics=reg)
    assert reg.value("plan_cache.miss") == 1
    assert reg.value("plan_cache.hit") == 1
    assert (first.plan_info["cache"], second.plan_info["cache"]) == (
        "miss", "hit")
    assert second.plan_info["compile_ms"] == 0.0
    assert reg.get("plan.compile_ms").count == 2


# ------------------------------------------------- satellite regressions
def test_oversized_vector_without_pad_is_a_valueerror():
    """n_result > Size with no pad vector: a named ValueError up front,
    not a bare AssertionError from the placement arithmetic."""
    with pytest.raises(ValueError) as ei:
        _check_vector_geometry(rank=2, size=4, n_result=9, pad_block=None)
    msg = str(ei.value)
    assert "rank 2" in msg
    assert "9" in msg and "4" in msg
    assert "pad" in msg
    # Legal geometries stay silent.
    _check_vector_geometry(rank=0, size=4, n_result=4, pad_block=None)
    _check_vector_geometry(
        rank=0, size=4, n_result=9, pad_block=np.zeros(3)
    )


def test_layout_cache_stats_and_clear():
    from repro.hpf.grid import GridLayout
    from repro.hpf.vector import VectorLayout

    clear_layout_caches()
    layout = GridLayout.create((N,), (P,), None)
    layout.global_flat_index(0)
    layout.global_flat_index(0)  # second call must be a hit
    VectorLayout(n=N, p=P, w=N // P).globals_(1)
    stats = layout_cache_stats()
    assert set(stats) >= {"hpf.grid.flat_index", "hpf.vector.globals",
                          "hpf.dimlayout.globals"}
    assert stats["hpf.grid.flat_index"]["entries"] == 1
    assert stats["hpf.grid.flat_index"]["hits"] == 1
    assert stats["hpf.vector.globals"]["entries"] == 1
    clear_layout_caches()
    assert all(s["entries"] == 0 for s in layout_cache_stats().values())


# -------------------------------------------------------------- mp backend
def test_mp_backend_hit_matches_reference():
    array, mask = _workload(seed=13, n=256)
    cache = PlanCache()
    miss = pack(array, mask, 2, validate=False, backend="mp",
                plan_cache=cache)
    hit = pack(array, mask, 2, validate=False, backend="mp",
               plan_cache=cache)
    assert miss.plan_info["cache"] == "miss"
    assert hit.plan_info["cache"] == "hit"
    assert hit.plan_info["compile_ms"] == 0.0
    expected = pack_reference(array, mask)
    np.testing.assert_array_equal(miss.vector, expected)
    np.testing.assert_array_equal(hit.vector, expected)


# ------------------------------------------------- the shipped closure
class _RecordingBackend(SimBackend):
    """Keeps the ``make_rank_args`` closure each run would ship."""

    def run_spmd(self, program, nprocs, **kw):
        self.shipped.append(kw["make_rank_args"])
        return super().run_spmd(program, nprocs, **kw)


def _closure_values(fn):
    """Every non-function value reachable through ``fn``'s closure cells."""
    values, stack = [], [fn]
    while stack:
        for cell in stack.pop().__closure__ or ():
            v = cell.cell_contents
            (stack if isinstance(v, types.FunctionType) else values).append(v)
    return values


def test_shipped_rank_args_capture_no_cache_or_observer():
    """Gang ranks receive the rank-args closure on every op: it may hold
    layouts, the config, rank plans and plain flags, but never the plan
    cache (it holds a lock) nor an observer."""
    array, mask = _workload(seed=14)
    vector = np.arange(int(mask.sum()), dtype=np.float64)
    cache, reg = PlanCache(), MetricsRegistry()
    be = _RecordingBackend()
    be.shipped = []
    for _ in range(2):  # a miss (capture) and a hit (replay)
        pack(array, mask, P, backend=be, plan_cache=cache, metrics=reg)
        pack(array, mask, P, backend=be, plan_cache=cache, metrics=reg,
             redistribute="whole", vector=np.zeros(N))
        unpack(vector, mask, array, P, backend=be, plan_cache=cache,
               metrics=reg)
        ranking(mask, P, backend=be, plan_cache=cache, metrics=reg)
        pack_many([array, -array], mask, P, backend=be, plan_cache=cache,
                  metrics=reg)
    plain = (GridLayout, VectorLayout, PackConfig, bool, int, str, type(None))
    for fn in be.shipped:
        for v in _closure_values(fn):
            if isinstance(v, list):
                assert all(type(p).__name__.endswith("RankPlan") for p in v)
            else:
                assert isinstance(v, plain), type(v)
