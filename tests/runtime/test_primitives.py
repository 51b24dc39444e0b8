"""The backend-agnostic primitive set, on sim and on mp over both transports."""

import numpy as np
import pytest

from repro.machine import MachineSpec
from repro.machine.errors import CollectiveMismatchError
from repro.machine.m2m import exchange
from repro.runtime import (
    MpBackend,
    SimBackend,
    allreduce,
    barrier,
    exclusive_prefix_sum,
)

SPEC = MachineSpec(tau=10e-6, mu=1e-6, delta=0.1e-6, name="test")


@pytest.fixture(params=["sim", "mp", "mp-queue"])
def backend(request):
    if request.param == "sim":
        return SimBackend()
    if request.param == "mp-queue":
        return MpBackend(timeout=60, transport="queue")
    return MpBackend(timeout=60)


def _run(backend, program, nprocs=4, **kwargs):
    return backend.run_spmd(program, nprocs, spec=SPEC, **kwargs)


class TestCollectives:
    def test_barrier_then_allreduce(self, backend):
        def prog(ctx):
            yield from barrier(ctx)
            total = yield from allreduce(ctx, ctx.rank + 1)
            return total

        run = _run(backend, prog)
        assert run.results == [10, 10, 10, 10]

    def test_allreduce_custom_op(self, backend):
        def prog(ctx):
            biggest = yield from allreduce(ctx, (ctx.rank * 7) % 5, op=max)
            return biggest

        run = _run(backend, prog)
        assert run.results == [max((r * 7) % 5 for r in range(4))] * 4

    def test_allreduce_noncommutative_is_rank_ordered(self, backend):
        def prog(ctx):
            order = yield from allreduce(ctx, [ctx.rank], op=lambda a, b: a + b)
            return order

        run = _run(backend, prog)
        assert run.results == [[0, 1, 2, 3]] * 4

    def test_exclusive_prefix_sum(self, backend):
        def prog(ctx):
            off = yield from exclusive_prefix_sum(ctx, ctx.rank + 1)
            return off

        run = _run(backend, prog)
        assert run.results == [0, 1, 3, 6]

    def test_subgroup_collective(self, backend):
        def prog(ctx):
            if ctx.rank in (1, 3):
                total = yield from allreduce(ctx, ctx.rank, group=(1, 3))
                return total
            return None

        run = _run(backend, prog)
        assert run.results == [None, 4, None, 4]

    def test_rank_outside_group_raises(self, backend):
        def prog(ctx):
            yield from barrier(ctx, group=(0, 1))
            return True

        with pytest.raises(Exception) as err:
            _run(backend, prog, nprocs=3)
        # sim raises CollectiveMismatchError directly; mp wraps the
        # originating rank's traceback in MpGangError.
        assert "group" in str(err.value)


class TestPointToPoint:
    def test_ring(self, backend):
        def prog(ctx):
            ctx.send((ctx.rank + 1) % ctx.size,
                     np.array([ctx.rank], dtype=np.int64), tag=9)
            msg = yield ctx.recv((ctx.rank - 1) % ctx.size, 9)
            return int(np.asarray(msg.payload)[0])

        run = _run(backend, prog)
        assert run.results == [3, 0, 1, 2]

    def test_fifo_per_pair(self, backend):
        def prog(ctx):
            if ctx.rank == 0:
                for i in range(5):
                    ctx.send(1, i, tag=2)
                return None
            if ctx.rank == 1:
                got = []
                for _ in range(5):
                    msg = yield ctx.recv(0, 2)
                    got.append(msg.payload)
                return got
            return None

        run = _run(backend, prog, nprocs=2)
        assert run.results[1] == [0, 1, 2, 3, 4]

    def test_alltoallv(self, backend):
        """Variable-size all-to-all is the m2m exchange."""
        def prog(ctx):
            outgoing = {
                q: np.full(ctx.rank + 1, ctx.rank * 10 + q, dtype=np.int64)
                for q in range(ctx.size) if q != ctx.rank
            }
            incoming = yield from exchange(ctx, outgoing)
            return {int(q): np.asarray(v).tolist()
                    for q, v in incoming.items()}

        run = _run(backend, prog, nprocs=3)
        for r, got in enumerate(run.results):
            for q in range(3):
                if q == r:
                    continue
                assert got[q] == [q * 10 + r] * (q + 1), (r, q)


class TestMixedTraffic:
    def test_collective_then_p2p_interleaving(self, backend):
        """Protocol messages and program messages must not steal each
        other even when a rank races ahead of the collective."""

        def prog(ctx):
            off = yield from exclusive_prefix_sum(ctx, 1)
            ctx.send((ctx.rank + 1) % ctx.size, off, tag=5)
            msg = yield ctx.recv((ctx.rank - 1) % ctx.size, 5)
            total = yield from allreduce(ctx, msg.payload)
            return total

        run = _run(backend, prog)
        assert run.results == [sum(range(4))] * 4
