"""Gang-lifetime shared memory: the inbox and the outbox.

A gang owns two boxes from spawn to reap.  The host pickles each op once
(protocol 5) into the **inbox**; each rank reads it without copying and
pickles its report into its own **outbox** slot.  These tests pin what
that buys and what it must not break:

* after the first op, warm ops create and unlink no shared-memory
  segment, and their results are bit-identical to ``SimBackend``;
* an op larger than the inbox, or a report larger than its slot, still
  comes back right: the report travels in-band once, the slots grow for
  the next op, and each replaced segment is unlinked at once;
* zero-extent and non-contiguous inputs survive the trip;
* back-to-back ops on the queue transport, whose feeder threads pickle
  inbox views after ``ctx.send`` returns, never see the next op's data;
* a rank killed mid-op on a warm gang is retried on a rebuilt gang with
  fresh boxes, and the old epoch's boxes are unlinked at the rebuild.

The autouse fixture in ``conftest.py`` checks every test reaps its
children and leaks no ``/dev/shm`` entry.
"""

import _thread
import threading
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core.api import pack, ranking, unpack
from repro.core.multi import pack_many
from repro.core.plan_cache import PlanCache
from repro.faults.chaos import ChaosEvent, ChaosPlan
from repro.machine import MachineSpec
from repro.obs import MetricsRegistry, RuntimeProfiler, validate_chrome_trace
from repro.runtime import GangSupervisor, RetryPolicy, SimBackend, allreduce
from repro.runtime import supervisor as supervisor_mod

from .conftest import _shm_segments

SPEC = MachineSpec(tau=10e-6, mu=1e-6, delta=0.1e-6, name="test")
FAST_RETRY = RetryPolicy(max_retries=2, base_delay=0.01, max_delay=0.05,
                         jitter=0.0, seed=0)


def _box_names(sup):
    return {sup._gang.inbox.name, sup._gang.outbox.name}


class _SegmentCounter:
    """Counts segments this process creates and unlinks."""

    def __init__(self, monkeypatch):
        self.created = 0
        self.unlinked = 0
        cls = shared_memory.SharedMemory
        init, unlink = cls.__init__, cls.unlink

        def counting_init(seg, name=None, create=False, size=0):
            if create:
                self.created += 1
            init(seg, name=name, create=create, size=size)

        def counting_unlink(seg):
            self.unlinked += 1
            unlink(seg)

        monkeypatch.setattr(cls, "__init__", counting_init)
        monkeypatch.setattr(cls, "unlink", counting_unlink)


def _assert_same(got, want):
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


# ------------------------------------------------------------ mixed ops
def _mixed_op(i, rng_masks, arrays):
    """The i-th op of the mixed workload, as ``backend -> result array``."""
    n = arrays[0].size
    if i % 5 == 4:
        mask = np.random.default_rng(100 + i).random(n) < 0.4  # a miss
    else:
        mask = rng_masks[i % len(rng_masks)]
    a, b = arrays[i % 2], arrays[(i + 1) % 2]
    kind = i % 4
    if kind == 0:
        return lambda be, pc: pack(a, mask, grid=(2,), spec=SPEC,
                                   backend=be, plan_cache=pc).vector
    if kind == 1:
        vec = b[: int(mask.sum())]
        return lambda be, pc: unpack(vec, mask, a, grid=(2,), spec=SPEC,
                                     backend=be, plan_cache=pc).array
    if kind == 2:
        return lambda be, pc: ranking(mask, grid=(2,), spec=SPEC,
                                      backend=be, plan_cache=pc).ranks
    return lambda be, pc: np.concatenate(
        pack_many([a, b], mask, grid=(2,), spec=SPEC, backend=be,
                  plan_cache=pc).vectors)


class TestWarmOpsStayInTheBoxes:
    def test_mixed_warm_ops_create_no_segment(self, monkeypatch):
        n = 4096
        rng = np.random.default_rng(3)
        arrays = [rng.random(n), rng.random(n)]
        masks = [rng.random(n) < d for d in (0.1, 0.3, 0.6)]
        cache = PlanCache()
        with GangSupervisor(timeout=120) as sup:
            _mixed_op(0, masks, arrays)(sup, cache)  # forks the gang
            names = _box_names(sup)
            before = _shm_segments()
            counter = _SegmentCounter(monkeypatch)
            for i in range(30):
                op = _mixed_op(i, masks, arrays)
                _assert_same(op(sup, cache), op(SimBackend(), None))
            assert (counter.created, counter.unlinked) == (0, 0)
            assert _shm_segments() == before
            assert _box_names(sup) == names
            assert sup.stats.box_grows == 0
            assert sup.stats.warm_ops == 30
            assert sup.stats.rebuilds == 0
        # Both hits and misses were exercised.
        assert cache.stats().hits > 0 and cache.stats().misses > 0


# ------------------------------------------------------------- box growth
def _double_half(ctx, block):
    ctx.work(1)
    return block * 2.0


def _halves(r, sh):
    half = sh["x"].size // 2
    return (sh["x"][r * half:(r + 1) * half],)


class TestBoxGrowth:
    def test_outgrown_boxes_fall_back_once_then_grow(self, monkeypatch):
        # 4 MiB of input outgrows the 1 MiB inbox; each rank's 2 MiB
        # report outgrows its 256 KiB slot.
        data = np.arange(1 << 19, dtype=np.float64)
        kinds = []
        read_report = supervisor_mod._Gang.read_report

        def spy(gang, rank, layout):
            kinds.append(layout[0])
            return read_report(gang, rank, layout)

        monkeypatch.setattr(supervisor_mod._Gang, "read_report", spy)
        with GangSupervisor(timeout=120) as sup:
            sup.warm(2)
            replaced = _box_names(sup)
            runs = []
            for _ in range(3):
                runs.append(sup.run_spmd(
                    _double_half, 2, spec=SPEC, shared={"x": data},
                    make_rank_args=_halves))
            for run in runs:
                _assert_same(np.concatenate(run.results), data * 2.0)
            # In-band exactly once per rank, boxed from then on.
            assert kinds == ["inband"] * 2 + ["box"] * 4
            # Op 0 grew the inbox, op 1 the outbox, op 2 nothing.
            assert sup.stats.box_grows == 2
            grows = [e for e in sup.stats.events if e.kind == "box_grow"]
            assert [e.detail.split()[0] for e in grows] == ["inbox", "outbox"]
            assert [e.op_id for e in grows] == [0, 1]
            assert not replaced & _box_names(sup)
            assert not replaced & _shm_segments()
            assert sup.stats.as_dict()["box_grows"] == 2

    def test_results_do_not_alias_the_outbox(self):
        data = np.arange(64, dtype=np.float64)
        with GangSupervisor(timeout=60) as sup:
            first = sup.run_spmd(_double_half, 2, spec=SPEC,
                                 shared={"x": data}, make_rank_args=_halves)
            kept = [r.copy() for r in first.results]
            sup.run_spmd(_double_half, 2, spec=SPEC, shared={"x": -data},
                         make_rank_args=_halves)
            for got, want in zip(first.results, kept):
                _assert_same(got, want)
                assert got.flags.writeable


# ------------------------------------------------- awkward input geometry
def _describe(ctx, block, extra):
    ctx.work(1)
    return (block.shape, block.dtype.str, block.copy(), extra.copy())


class TestAwkwardInputs:
    def test_zero_extent_and_non_contiguous(self):
        grid = np.arange(48, dtype=np.int32).reshape(6, 8)
        cols = grid[:, ::3]            # non-contiguous shared input
        weights = np.arange(10.0)[::2]  # non-contiguous closure value

        def maker(r, sh):
            return (sh["cols"][r::2], weights[r:r + 2])

        def empty_maker(r, sh):
            return (sh["empty"], sh["cols"][:0])

        with GangSupervisor(timeout=60) as sup:
            for make, shared in (
                (maker, {"cols": cols}),
                (empty_maker, {"empty": np.zeros((3, 0)), "cols": cols}),
            ):
                got = sup.run_spmd(_describe, 2, spec=SPEC, shared=shared,
                                   make_rank_args=make).results
                want = SimBackend().run_spmd(_describe, 2, spec=SPEC,
                                             shared=shared,
                                             make_rank_args=make).results
                for g, w in zip(got, want):
                    assert g[:2] == w[:2]
                    _assert_same(g[2], w[2])
                    _assert_same(g[3], w[3])

    def test_zero_extent_api_calls(self):
        with GangSupervisor(timeout=60) as sup:
            for be in (sup, "sim"):
                v = pack(np.zeros(0), np.zeros(0, bool), grid=(2,),
                         pad=True, spec=SPEC, backend=be).vector
                assert v.shape == (0,) and v.dtype == np.float64
                a = unpack(np.zeros(0), np.zeros((3, 0), bool),
                           np.zeros((3, 0)), grid=(1, 2), pad=True,
                           spec=SPEC, backend=be).array
                assert a.shape == (3, 0)


# ----------------------------------------------- queue transport feeders
def _ring_pass(ctx, block):
    """Send my inbox-backed block to the next rank as my last act."""
    ctx.phase("compute")
    nxt = (ctx.rank + 1) % ctx.size
    prev = (ctx.rank - 1) % ctx.size
    ctx.send(nxt, block, tag=7)
    msg = yield ctx.recv(prev, 7)
    return float(np.sum(msg.payload))


class TestQueueFeeders:
    def test_back_to_back_ops_see_their_own_inputs(self):
        base = np.arange(4096, dtype=np.float64)
        with GangSupervisor(timeout=120, transport="queue") as sup:
            for i in range(50):
                data = base + 1000.0 * i
                run = sup.run_spmd(_ring_pass, 2, spec=SPEC,
                                   shared={"x": data},
                                   make_rank_args=_halves)
                half = data.size // 2
                assert run.results == [float(data[half:].sum()),
                                       float(data[:half].sum())]
            assert sup.stats.warm_ops == 49


# ---------------------------------------------------------------- chaos
def _sum_prog(ctx, x):
    ctx.phase("compute")
    total = yield from allreduce(ctx, float(np.sum(x)), lambda a, b: a + b)
    return total


class TestChaosWithBoxesMapped:
    def test_killed_rank_rebuilds_with_fresh_boxes(self):
        data = np.arange(1 << 12, dtype=np.float64)
        plan = ChaosPlan(events=(
            ChaosEvent(kind="kill", rank=1, op_index=2, phase="compute"),
        ))
        want = SimBackend().run_spmd(_sum_prog, 2, spec=SPEC,
                                     shared={"x": data},
                                     make_rank_args=_halves).results
        before = _shm_segments()
        with GangSupervisor(timeout=60, retry=FAST_RETRY, chaos=plan) as sup:
            for i in range(2):
                run = sup.run_spmd(_sum_prog, 2, spec=SPEC,
                                   shared={"x": data}, make_rank_args=_halves)
                assert run.results == want
            old = _box_names(sup)
            assert old <= _shm_segments()
            run = sup.run_spmd(_sum_prog, 2, spec=SPEC, shared={"x": data},
                               make_rank_args=_halves)
            assert run.results == want
            assert sup.stats.rebuilds == 1 and sup.stats.retries == 1
            new = _box_names(sup)
            assert not old & new
            # Unlinked at the rebuild, not only at close().
            assert not old & _shm_segments()
        assert _shm_segments() == before


class TestBoxGrowIsVisible:
    def test_grow_shows_in_metrics_and_profile(self):
        data = np.arange(1 << 18, dtype=np.float64)  # 2 MiB > 1 MiB inbox
        reg = MetricsRegistry()
        prof = RuntimeProfiler()
        with GangSupervisor(timeout=60) as sup:
            sup.warm(2)
            run = sup.run_spmd(_sum_prog, 2, spec=SPEC, shared={"x": data},
                               make_rank_args=_halves, metrics=reg,
                               profile=prof)
            assert run.results == [float(data.sum())] * 2
        # The inbox grew, and the first profiled op created the gang's
        # profile box.
        assert reg.value("supervisor.box_grow") == 2
        assert [e.detail.split()[0] for e in sup.stats.events
                if e.kind == "box_grow"] == ["inbox", "profile"]
        spans = [s[0] for s in prof.profile.gang_spans]
        assert spans.count("supervisor.box_grow") == 2
        validate_chrome_trace(prof.profile.to_chrome_trace())

    def test_profiled_warm_ops_reuse_a_cleared_profile_box(self, monkeypatch):
        data = np.arange(64, dtype=np.float64)
        with GangSupervisor(timeout=60) as sup:
            sup.warm(2)
            profiles = []
            for i in range(4):
                if i == 1:
                    counter = _SegmentCounter(monkeypatch)
                prof = RuntimeProfiler()
                run = sup.run_spmd(_sum_prog, 2, spec=SPEC,
                                   shared={"x": data},
                                   make_rank_args=_halves, profile=prof)
                assert run.results == [float(data.sum())] * 2
                profiles.append(prof.profile)
            assert (counter.created, counter.unlinked) == (0, 0)
        # Counters start from zero on every op: nothing accumulates.
        first = profiles[0]
        for p in profiles[1:]:
            assert p.comm_msgs == first.comm_msgs
            assert p.collectives_per_rank == first.collectives_per_rank


# ------------------------------------------------------------ interrupts
def _stuck(ctx):
    yield ctx.recv((ctx.rank + 1) % ctx.size, 99)  # never sent


class TestInterruptedWarmOp:
    def test_interrupted_op_retires_the_gang(self):
        # Ranks still inside an interrupted op may be reading the inbox,
        # so the next op must not rewrite it: it gets a fresh gang.
        data = np.arange(64, dtype=np.float64)
        with GangSupervisor(timeout=60) as sup:
            sup.warm(2)
            epoch = sup.stats.gang_epoch
            timer = threading.Timer(0.5, _thread.interrupt_main)
            timer.start()
            try:
                with pytest.raises(KeyboardInterrupt):
                    sup.run_spmd(_stuck, 2, spec=SPEC)
            finally:
                timer.cancel()
            assert sup._gang is None
            run = sup.run_spmd(_sum_prog, 2, spec=SPEC, shared={"x": data},
                               make_rank_args=_halves)
            assert run.results == [float(data.sum())] * 2
            assert sup.stats.gang_epoch == epoch + 1
