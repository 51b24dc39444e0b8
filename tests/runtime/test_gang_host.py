"""The one gang host: ``mp`` is a one-op supervised gang.

Both process backends fork, collect and reap through
:mod:`repro.runtime.supervisor`.  These tests pin what that buys:
failures read the same whichever backend raised them, ``mp`` programs
ship through the same freezer as supervised ones (so closure state must
pickle), ``warm()`` failures surface as :class:`MpGangError`, and warm
ranks do not outlive a host that was SIGKILLed.  The autouse fixture in
``conftest.py`` checks every test reaps its children and leaks nothing.
"""

import _thread
import multiprocessing.context
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.faults.chaos import ChaosEvent, ChaosPlan
from repro.machine import MachineSpec
from repro.runtime import (
    BackendError,
    GangSupervisor,
    MpBackend,
    MpGangError,
    RetryPolicy,
    allreduce,
)

SPEC = MachineSpec(tau=10e-6, mu=1e-6, delta=0.1e-6, name="test")
DATA = np.arange(64, dtype=np.float64)


def _sum_prog(ctx, x):
    ctx.phase("compute")
    total = yield from allreduce(ctx, float(np.sum(x)), lambda a, b: a + b)
    return total


def _halves(r, sh):
    return (sh["x"][r * 32:(r + 1) * 32],)


def _kill(phase):
    return ChaosPlan(events=(
        ChaosEvent(kind="kill", rank=1, op_index=0, phase=phase),
    ))


class TestOneFailureWording:
    """A rank death reads the same on ``mp`` and on a supervisor with
    retries off; the retry wrapper only appears when retries exist."""

    @pytest.mark.parametrize("phase", ["spawn", "compute"])
    @pytest.mark.parametrize("backend", ["mp", "supervised"])
    def test_rank_death_wording(self, backend, phase):
        if backend == "mp":
            be = MpBackend(timeout=60, chaos=_kill(phase))
        else:
            be = GangSupervisor(timeout=60, chaos=_kill(phase),
                                retry=RetryPolicy(max_retries=0))
        try:
            with pytest.raises(MpGangError) as err:
                be.run_spmd(_sum_prog, 2, spec=SPEC, shared={"x": DATA},
                            make_rank_args=_halves)
        finally:
            if backend == "supervised":
                be.close()
        assert err.value.rank == 1
        assert str(err.value).endswith(
            "rank 1 failed: rank 1 exited with code -9 without reporting "
            "a result")

    def test_retry_wrapper_only_with_retries(self):
        plan = ChaosPlan(events=(
            ChaosEvent(kind="kill", rank=1, op_index=0, phase="compute",
                       times=2),
        ))
        pol = RetryPolicy(max_retries=1, base_delay=0.01, jitter=0.0)
        with GangSupervisor(timeout=60, retry=pol, chaos=plan) as sup:
            with pytest.raises(MpGangError) as err:
                sup.run_spmd(_sum_prog, 2, spec=SPEC, shared={"x": DATA},
                             make_rank_args=_halves)
        assert err.value.rank == 1
        assert "retry budget exhausted after 2 attempts; last failure: " \
            "rank_death: rank 1 exited with code -9 without reporting a " \
            "result" in str(err.value)


class TestMpShipsFrozenPrograms:
    def test_unpicklable_closure_rejected_before_fork(self, monkeypatch):
        def no_fork(self):
            raise AssertionError("a gang was forked")

        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start",
                            no_fork)
        lock = threading.Lock()

        def prog(ctx):
            return lock.locked()

        with pytest.raises(BackendError, match="not picklable"):
            MpBackend(timeout=60).run_spmd(prog, 2, spec=SPEC)


class _SlowToPickle:
    """Pickles an arena-backed view only after a pause, long enough for
    the sending rank's main thread to finish its op and head for exit."""

    def __init__(self, view):
        self.view = view

    def __reduce__(self):
        time.sleep(0.3)
        return (np.array, (self.view,))


def _send_last(ctx, block):
    # Rank 0's last act is a send, pickled on the queue transport's feeder
    # thread while rank 0 shuts down; rank 1 is still waiting for it.
    if ctx.rank == 0:
        ctx.send(1, _SlowToPickle(block), tag=5)
        return 0.0
    msg = yield ctx.recv(0, 5)
    return float(np.sum(msg.payload))


class TestOneOpExit:
    def test_queued_send_survives_sender_exit(self):
        data = np.arange(1024, dtype=np.float64)
        run = MpBackend(timeout=10, transport="queue").run_spmd(
            _send_last, 2, spec=SPEC, shared={"x": data},
            make_rank_args=lambda r, sh: (sh["x"][r * 512:(r + 1) * 512],),
        )
        assert run.results == [0.0, float(data[:512].sum())]


class TestInterrupt:
    def test_interrupted_op_reaps_gang_without_grace_wait(self):
        # A one-op gang has no control queue to ask its ranks to stop, so
        # teardown must kill them at once rather than wait join_grace
        # per rank for ranks that are blocked mid-op.
        def prog(ctx):
            yield ctx.recv((ctx.rank + 1) % ctx.size, 99)  # never sent

        timer = threading.Timer(0.5, _thread.interrupt_main)
        timer.start()
        t0 = time.monotonic()
        try:
            with pytest.raises(KeyboardInterrupt):
                MpBackend(timeout=60, join_grace=5.0).run_spmd(
                    prog, 2, spec=SPEC)
        finally:
            timer.cancel()
        assert time.monotonic() - t0 < 4.0


class TestWarm:
    def test_warm_failure_is_a_gang_error(self):
        with GangSupervisor(timeout=60, chaos=_kill("spawn")) as sup:
            with pytest.raises(MpGangError, match="without reporting"):
                sup.warm(2)
            # The failed gang was reaped; the next warm forks a fresh one.
            sup.warm(2)
            run = sup.run_spmd(_sum_prog, 2, spec=SPEC, shared={"x": DATA},
                               make_rank_args=_halves)
            assert run.results == [float(DATA.sum())] * 2
            assert sup.stats.warm_ops == 1


class TestOrphanedRanks:
    """Warm ranks of a SIGKILLed host exit on their own (their heartbeat
    watches the parent pid), which lets the host's resource tracker
    unlink the segments the host could not."""

    SCRIPT = r"""
from repro.runtime.supervisor import GangSupervisor

sup = GangSupervisor()
sup.warm(2)
print(",".join(str(p.pid) for p in sup._gang.procs), flush=True)
import time
time.sleep(60)
"""

    def test_host_sigkill_leaves_no_ranks_or_segments(self):
        before = _psm_segments()
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env["PYTHONPATH"] = os.path.join(root, "src")
        proc = subprocess.Popen(
            [sys.executable, "-c", self.SCRIPT],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
            text=True,
        )
        try:
            pids = [int(p) for p in proc.stdout.readline().split(",")]
            assert len(pids) == 2
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=15)
        finally:
            proc.kill()
            proc.wait(timeout=15)
            proc.stdout.close()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and any(map(_alive, pids)):
            time.sleep(0.05)
        assert [p for p in pids if _alive(p)] == [], "orphaned ranks survived"
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and _psm_segments() - before:
            time.sleep(0.05)
        assert _psm_segments() - before == set()


def _psm_segments():
    return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}


def _alive(pid):
    """True while ``pid`` runs (an unreaped zombie counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
