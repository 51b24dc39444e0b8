"""PlanCache.save / load: plans compiled in one process serve the next.

The serve subsystem's ``--plan-cache-file`` rides on this: a server (or
`repro plan`) persists its cache on drain and the next start loads it,
so the first request of a steady workload replays instead of compiling.
The bar is the same bit-identity the in-memory cache guarantees.
"""

import json

import numpy as np
import pytest

from repro.core.api import pack, ranking, unpack
from repro.core.plan_cache import PlanCache
from repro.serial.reference import pack_reference

N = 512
P = 4


def _workload(seed=0, density=0.5):
    rng = np.random.default_rng(seed)
    return rng.random(N), rng.random(N) < density


def _run_equal(a, b):
    assert a.elapsed == b.elapsed
    assert a.phase_breakdown() == b.phase_breakdown()
    assert a.total_words == b.total_words


def _fill(cache):
    """Compile one plan of every op kind into ``cache``."""
    array, mask = _workload()
    vector = np.arange(int(mask.sum()), dtype=np.float64)
    pack(array, mask, P, scheme="cms", validate=False, plan_cache=cache)
    unpack(vector, mask, array, P, scheme="css", validate=False,
           plan_cache=cache)
    ranking(mask, P, scheme="css", validate=False, plan_cache=cache)
    pack(array, mask, P, redistribute="selected", validate=False,
         plan_cache=cache)
    pack(array, mask, P, redistribute="whole", validate=False,
         plan_cache=cache)
    return array, mask, vector


def test_save_load_roundtrip_all_plan_kinds(tmp_path):
    cache = PlanCache()
    _fill(cache)
    path = tmp_path / "plans.json"
    assert cache.save(path) == 5

    loaded = PlanCache.load(path)
    assert len(loaded) == 5
    assert set(loaded.keys()) == set(cache.keys())
    for key in cache.keys():
        assert loaded.peek(key).nbytes == cache.peek(key).nbytes


def test_loaded_plans_replay_bit_identical(tmp_path):
    cache = PlanCache()
    array, mask, _ = _fill(cache)
    path = tmp_path / "plans.json"
    cache.save(path)

    fresh = PlanCache.load(path)
    baseline = pack(array, mask, P, scheme="cms", validate=False,
                    plan_cache=cache)
    revived = pack(array, mask, P, scheme="cms", validate=False,
                   plan_cache=fresh)
    assert baseline.plan_info["cache"] == "hit"
    assert revived.plan_info["cache"] == "hit"
    np.testing.assert_array_equal(revived.vector, pack_reference(array, mask))
    _run_equal(baseline.run, revived.run)


def test_save_preserves_lru_order(tmp_path):
    """Loading more plans than capacity must keep the most-recent tail."""
    cache = PlanCache()
    array, _ = _workload()
    masks = [np.arange(N) % k == 0 for k in (2, 3, 5)]
    for m in masks:
        pack(array, m, P, validate=False, plan_cache=cache)
    path = tmp_path / "plans.json"
    cache.save(path)

    small = PlanCache(capacity=2)
    small.load_into(path)
    kept = set(small.keys())
    full = cache.keys()  # LRU order, oldest first
    assert kept == set(full[-2:])


def test_load_rejects_unknown_schema(tmp_path):
    path = tmp_path / "plans.json"
    path.write_text('{"schema": 99, "plans": []}')
    with pytest.raises(ValueError, match="unsupported schema"):
        PlanCache.load(path)


def test_save_is_atomic_overwrite(tmp_path):
    """A second save replaces the file; no temp debris is left behind."""
    cache = PlanCache()
    array, mask = _workload()
    pack(array, mask, P, validate=False, plan_cache=cache)
    path = tmp_path / "plans.json"
    cache.save(path)
    cache.save(path)
    assert PlanCache.load(path).keys() == cache.keys()
    assert [p.name for p in tmp_path.iterdir()] == ["plans.json"]


def test_one_bad_entry_loads_nothing(tmp_path):
    """Entries are all parsed and checked before any goes in: a file with
    one plan whose rank list does not match its key leaves the cache as
    it was."""
    cache = PlanCache()
    _fill(cache)
    path = tmp_path / "plans.json"
    cache.save(path)
    doc = json.loads(path.read_text())
    doc["plans"][-1]["ranks"].pop()  # P-1 rank entries for a P-rank key
    path.write_text(json.dumps(doc))

    target = PlanCache()
    with pytest.raises(ValueError, match="rank entries"):
        target.load_into(path)
    assert len(target) == 0
