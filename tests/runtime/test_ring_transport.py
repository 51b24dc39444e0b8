"""Ring transport integration: bit-equality, conformance corpus, chaos.

The ring transport must be invisible to results: every configuration
that passes on the queue transport (and on the simulator, and against
the serial oracle) must produce bit-identical output over the rings, at
P=2 and P=4, whichever pair wire form the encoder picks.  And a SIGKILL
delivered while a rank is blocked in a ring wait must classify as
``rank_death`` and recover under the supervisor — never deadlock the
gang.
"""

import functools
import platform
import time
import warnings

import numpy as np
import pytest

from repro.conformance import replay_corpus
from repro.core.api import pack, unpack
from repro.faults.chaos import ChaosEvent, ChaosPlan
from repro.machine import MachineSpec
from repro.runtime import (
    GangSupervisor,
    MpBackend,
    RetryPolicy,
    TRANSPORT_NAMES,
    resolve_transport,
)
from repro.runtime import mp as mp_module
from repro.runtime.shm_ring import RingConfig, RingMatrix

SPEC = MachineSpec(tau=10e-6, mu=1e-6, delta=0.1e-6, name="test")
CORPUS = "tests/conformance/corpus"
TINY_RINGS = RingConfig(nslots=4, slot_bytes=128, slab_bytes=256)

FAST_RETRY = RetryPolicy(max_retries=2, base_delay=0.01, max_delay=0.05,
                         jitter=0.0, seed=0)


def _use_tiny_rings(monkeypatch):
    """Build every gang's ring matrix with a tiny geometry.

    The host builds the matrix before forking, so patching its one
    construction site reaches every rank.
    """
    monkeypatch.setattr(mp_module, "RingMatrix",
                        functools.partial(RingMatrix, config=TINY_RINGS))


def _workload(n=96, density=0.5, seed=3):
    rng = np.random.default_rng(seed)
    return rng.random(n), rng.random(n) < density


class TestTransportResolution:
    def test_default_is_ring(self, monkeypatch):
        monkeypatch.delenv("REPRO_MP_TRANSPORT", raising=False)
        monkeypatch.setattr(platform, "machine", lambda: "x86_64")
        assert MpBackend().transport == "ring"

    def test_weakly_ordered_platform_defaults_to_queue(self, monkeypatch):
        # The ring's lock-free head publication assumes total store
        # order; off x86 the safe queue transport is the default.
        monkeypatch.delenv("REPRO_MP_TRANSPORT", raising=False)
        monkeypatch.setattr(platform, "machine", lambda: "aarch64")
        assert resolve_transport(None) == "queue"
        assert MpBackend().transport == "queue"

    def test_forcing_ring_on_weakly_ordered_platform_warns(self, monkeypatch):
        monkeypatch.setattr(platform, "machine", lambda: "aarch64")
        with pytest.warns(RuntimeWarning, match="total-store-order"):
            assert resolve_transport("ring") == "ring"
        monkeypatch.setenv("REPRO_MP_TRANSPORT", "ring")
        with pytest.warns(RuntimeWarning, match="total-store-order"):
            assert resolve_transport(None) == "ring"

    def test_no_warning_on_tso_platform(self, monkeypatch):
        monkeypatch.setattr(platform, "machine", lambda: "x86_64")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_transport("ring") == "ring"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_TRANSPORT", "queue")
        assert MpBackend().transport == "queue"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_TRANSPORT", "queue")
        assert MpBackend(transport="ring").transport == "ring"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown transport"):
            resolve_transport("tcp")
        with pytest.raises(ValueError, match="unknown transport"):
            MpBackend(transport="tcp")

    def test_names_registry(self):
        assert TRANSPORT_NAMES == ("queue", "ring")


class TestBitEquality:
    @pytest.mark.parametrize("nprocs", [2, 4])
    def test_ring_equals_queue_equals_sim(self, nprocs):
        array, mask = _workload()
        sim = pack(array, mask, grid=(nprocs,), spec=SPEC, validate=False,
                   backend="sim")
        by_transport = {
            t: pack(array, mask, grid=(nprocs,), spec=SPEC, validate=False,
                    backend=MpBackend(timeout=120, transport=t))
            for t in TRANSPORT_NAMES
        }
        for t, res in by_transport.items():
            np.testing.assert_array_equal(res.vector, sim.vector, err_msg=t)
            assert res.vector.dtype == sim.vector.dtype

    @pytest.mark.parametrize("block", [1, None])
    def test_both_pair_wire_forms_are_bit_identical(self, block):
        # SSS PACK ships pair messages.  A cyclic source (block 1)
        # scatters each message's result ranks, so every message keeps
        # the (rank, datum) form; contiguous blocks give long runs that
        # ship as CMS segments.
        array, mask = _workload(seed=11)
        kw = dict(grid=(4,), block=block, scheme="sss", spec=SPEC,
                  validate=False)
        sim = pack(array, mask, backend="sim", **kw)
        mp = pack(array, mask, backend=MpBackend(timeout=120, transport="ring"),
                  **kw)
        np.testing.assert_array_equal(mp.vector, sim.vector)

    @pytest.mark.parametrize("nprocs", [2, 4])
    def test_unpack_roundtrip_over_ring(self, nprocs):
        array, mask = _workload(seed=23)
        backend = MpBackend(timeout=120, transport="ring")
        packed = pack(array, mask, grid=(nprocs,), spec=SPEC, validate=True,
                      backend=backend)
        restored = unpack(packed.vector, mask, array, grid=(nprocs,),
                          scheme="css", spec=SPEC, validate=True,
                          backend=backend)
        np.testing.assert_array_equal(restored.array, array)


class TestConformanceCorpus:
    def test_corpus_replays_clean_over_tiny_rings(self, monkeypatch):
        # The corpus entries fix their own grids (P=2, 4, and 8 among
        # them); what we vary here is the transport geometry — tiny
        # rings force wraparound and slab spill on real corpus traffic.
        monkeypatch.setenv("REPRO_MP_TRANSPORT", "ring")
        _use_tiny_rings(monkeypatch)
        failures = [
            (path.name, outcome.detail)
            for path, _bug, outcome in replay_corpus(CORPUS, backend="mp")
            if not outcome.ok
        ]
        assert failures == []


def _eager_exchange_prog(ctx, n):
    # Every rank fires all of its sends before receiving anything — the
    # pattern alltoallv_native uses.  With payloads far larger than the
    # slab ring, every pair hits slab backpressure mid-send; only the
    # cooperative drain (a blocked send consuming its own incoming
    # rings) lets the cycle complete.
    data = np.full(n, float(ctx.rank), dtype=np.float64)
    for k in range(1, ctx.size):
        ctx.send((ctx.rank + k) % ctx.size, data, words=n, tag=7)
    total = 0.0
    for _ in range(ctx.size - 1):
        msg = yield ctx.recv(tag=7)
        total += float(np.asarray(msg.payload).sum())
    return total


class TestSendBackpressure:
    @pytest.mark.parametrize("nprocs", [2, 4])
    def test_all_sends_before_any_recv_exceeding_slab(self, nprocs, monkeypatch):
        # REVIEW scenario: every per-pair payload (32 KiB) dwarfs the
        # slab ring (256 B), and every rank is mid-send at once.  The
        # timeout bounds a regression to a clean MpGangError instead of
        # a hung gang.
        _use_tiny_rings(monkeypatch)
        n = 4096
        run = MpBackend(timeout=120, transport="ring").run_spmd(
            _eager_exchange_prog, nprocs, rank_args=[(n,)] * nprocs
        )
        expected = [
            float(sum(n * s for s in range(nprocs) if s != me))
            for me in range(nprocs)
        ]
        assert run.results == expected


def _mutate_recv_prog(ctx):
    if ctx.rank == 0:
        ctx.send(1, np.arange(4, dtype=np.float64), words=4, tag=3)
        return 0.0
    msg = yield ctx.recv(0, 3)
    msg.payload[:] *= 2.0  # received payloads are writable on every transport
    return float(msg.payload.sum())


def _self_send_mutate_prog(ctx):
    a = np.arange(4, dtype=np.float64)
    ctx.send(ctx.rank, a, words=4, tag=2)
    a[:] = -1.0  # mutate-after-send must never reach the receiver
    msg = yield ctx.recv(ctx.rank, 2)
    msg.payload[0] += 1.0  # and the copy is writable
    return float(np.asarray(msg.payload).sum())


class TestReceiveContract:
    @pytest.mark.parametrize("transport", TRANSPORT_NAMES)
    def test_received_payloads_are_writable(self, transport):
        run = MpBackend(timeout=60, transport=transport).run_spmd(
            _mutate_recv_prog, 2
        )
        assert run.results == [0.0, 12.0]

    @pytest.mark.parametrize("transport", TRANSPORT_NAMES)
    def test_self_send_delivers_an_independent_copy(self, transport):
        run = MpBackend(timeout=60, transport=transport).run_spmd(
            _self_send_mutate_prog, 1
        )
        assert run.results == [7.0]


def _late_send_prog(ctx):
    # Rank 1 blocks in a ring wait; rank 0 sleeps in real wall time
    # first, so the kill fires while rank 1 is parked on its doorbell.
    if ctx.rank == 0:
        time.sleep(0.3)
        ctx.send(1, np.arange(4, dtype=np.int64), words=4, tag=5)
        return 0
    msg = yield ctx.recv(0, 5)
    return int(np.asarray(msg.payload).sum())


class TestChaosRingWait:
    def test_sigkill_mid_ring_wait_recovers_not_deadlocks(self):
        plan = ChaosPlan(events=(
            ChaosEvent(kind="kill", rank=1, op_index=0, phase="ring_wait"),
        ))
        sup = GangSupervisor(timeout=60, retry=FAST_RETRY, chaos=plan,
                             transport="ring")
        with sup:
            run = sup.run_spmd(_late_send_prog, 2, spec=SPEC)
            assert run.results == [0, 6]
            assert sup.stats.failures.get("rank_death", 0) >= 1
            assert sup.stats.retries >= 1
            assert sup.stats.rebuilds >= 1

    def test_ring_wait_phase_never_fires_on_queue_transport(self):
        # The same plan on the queue transport must be a no-op: the op
        # completes first try, no retries.
        plan = ChaosPlan(events=(
            ChaosEvent(kind="kill", rank=1, op_index=0, phase="ring_wait"),
        ))
        sup = GangSupervisor(timeout=60, retry=FAST_RETRY, chaos=plan,
                             transport="queue")
        with sup:
            run = sup.run_spmd(_late_send_prog, 2, spec=SPEC)
            assert run.results == [0, 6]
            assert sup.stats.retries == 0
