"""MpBackend failure hygiene: gang teardown, reaping, leak-freedom.

A rank failing mid-phase must terminate the whole gang, reap every child
process, unlink every shared-memory segment, and surface the originating
rank's traceback — on every failure path (program exception, silent child
death via real SIGKILL at every lifecycle phase, gang timeout, SPMD
divergence, poisoned result message).

The leak check itself (children, ``psm_*`` segments, ``sem.*``
semaphores after every test) is the autouse fixture in ``conftest.py``.
"""

import os

import numpy as np
import pytest

from repro.faults.chaos import ChaosEvent, ChaosPlan
from repro.machine import MachineSpec
from repro.runtime import MpBackend, MpGangError, allreduce, barrier

from .conftest import _shm_segments, live_gang as _live_gang, settle as _settle

SPEC = MachineSpec(tau=10e-6, mu=1e-6, delta=0.1e-6, name="test")


class TestProgramFailure:
    def test_raise_mid_phase_surfaces_rank_and_traceback(self):
        def prog(ctx):
            ctx.phase("ranking.local")
            yield from barrier(ctx)
            if ctx.rank == 1:
                raise ValueError("boom on rank one")
            # Healthy ranks block forever; teardown must not wait on them.
            yield ctx.recv(0, 42)

        with pytest.raises(MpGangError) as err:
            MpBackend(timeout=60).run_spmd(prog, 3, spec=SPEC)
        assert err.value.rank == 1
        assert "ValueError: boom on rank one" in str(err.value)
        assert "rank 1 traceback" in str(err.value)

    def test_gang_reaped_after_failure(self):
        def prog(ctx):
            if ctx.rank == 0:
                raise RuntimeError("die immediately")
            yield ctx.recv(0, 1)  # would block forever

        with pytest.raises(MpGangError):
            MpBackend(timeout=60).run_spmd(prog, 4, spec=SPEC)
        _settle()
        assert _live_gang() == []

    def test_shm_unlinked_after_failure(self):
        before = _shm_segments()
        big = np.arange(1 << 16, dtype=np.float64)

        def prog(ctx, block):
            raise RuntimeError("fail with shm live")
            yield  # pragma: no cover - generator form

        with pytest.raises(MpGangError):
            MpBackend(timeout=60).run_spmd(
                prog, 2, spec=SPEC, shared={"big": big},
                make_rank_args=lambda r, sh: (sh["big"],),
            )
        assert _shm_segments() <= before

    def test_shm_unlinked_after_success(self):
        before = _shm_segments()
        data = np.arange(4096, dtype=np.float64)

        def prog(ctx, block):
            ctx.work(1)
            return float(np.sum(block))

        run = MpBackend(timeout=60).run_spmd(
            prog, 2, spec=SPEC, shared={"data": data},
            make_rank_args=lambda r, sh: (sh["data"],),
        )
        assert run.results == [float(data.sum())] * 2
        assert _shm_segments() <= before

    def test_silent_child_death_detected(self):
        def prog(ctx):
            if ctx.rank == 1:
                os._exit(9)  # dies without reporting a result
            yield ctx.recv(0, 1)

        with pytest.raises(MpGangError, match="without reporting"):
            MpBackend(timeout=60).run_spmd(prog, 2, spec=SPEC)

    def test_gang_timeout(self):
        def prog(ctx):
            yield ctx.recv((ctx.rank + 1) % ctx.size, 99)  # never sent

        with pytest.raises(MpGangError, match="did not finish within"):
            MpBackend(timeout=1.5).run_spmd(prog, 2, spec=SPEC)

    def test_collective_divergence_is_reported_not_deadlocked(self):
        def prog(ctx):
            if ctx.rank == 0:
                total = yield from allreduce(ctx, 1, key=1)
            else:
                yield from barrier(ctx, key=2)
                total = None
            return total

        with pytest.raises(MpGangError) as err:
            MpBackend(timeout=30).run_spmd(prog, 2, spec=SPEC)
        assert "CollectiveMismatch" in str(err.value)


class TestChaosKillPaths:
    """Satellite: every MpGangError path under a *real* SIGKILL, placed
    by a seeded ChaosPlan at each lifecycle phase.  The bare backend must
    fail fast with originating-rank attribution, reap the gang, and leak
    nothing (the autouse fixture asserts the last two)."""

    #: phase -> where the rank dies: before reporting ready (fork/spawn),
    #: inside its compute phase, entering a collective, or after the
    #: program finished but before the result is posted (flush).
    PHASES = ("spawn", "compute", "collective", "flush")

    @staticmethod
    def _prog(ctx, x):
        ctx.phase("compute")
        total = yield from allreduce(ctx, float(np.sum(x)), lambda a, b: a + b)
        return total

    @pytest.mark.parametrize("phase", PHASES)
    @pytest.mark.parametrize("victim", [0, 1])
    def test_sigkill_at_phase_attributed_and_clean(self, phase, victim):
        data = np.arange(64, dtype=np.float64)
        plan = ChaosPlan(events=(
            ChaosEvent(kind="kill", rank=victim, op_index=0, phase=phase),
        ))
        backend = MpBackend(timeout=60, chaos=plan)
        with pytest.raises(MpGangError) as err:
            backend.run_spmd(
                self._prog, 2, spec=SPEC, shared={"x": data},
                make_rank_args=lambda r, sh: (sh["x"][r * 32:(r + 1) * 32],),
            )
        # A SIGKILLed child exits -9 without reporting; the survivor may
        # block in the collective forever — teardown must not wait on it.
        assert err.value.rank == victim
        assert "code -9" in str(err.value)
        assert "without reporting" in str(err.value)
        _settle()
        assert _live_gang() == []

    def test_poisoned_result_rejected(self):
        plan = ChaosPlan(events=(
            ChaosEvent(kind="poison", rank=1, op_index=0, phase="flush"),
        ))

        def prog(ctx):
            ctx.work(1)
            return ctx.rank

        with pytest.raises(MpGangError, match="malformed result"):
            MpBackend(timeout=60, chaos=plan).run_spmd(prog, 2, spec=SPEC)

    def test_delay_is_not_a_failure(self):
        plan = ChaosPlan(events=(
            ChaosEvent(kind="delay", rank=0, op_index=0, phase="compute",
                       seconds=0.2),
        ))

        def prog(ctx):
            ctx.phase("compute")
            ctx.work(1)
            return ctx.rank

        run = MpBackend(timeout=60, chaos=plan).run_spmd(prog, 2, spec=SPEC)
        assert run.results == [0, 1]


class TestRejectedInsideChild:
    """Malformed ops used *inside* a program fail fast with a clear
    message shipped home, instead of hanging the gang."""

    def test_negative_tag_send(self):
        def prog(ctx):
            ctx.send(0, 1.0, tag=-5)
            yield ctx.recv(0, 1)

        with pytest.raises(MpGangError, match="reserved"):
            MpBackend(timeout=30).run_spmd(prog, 2, spec=SPEC)
