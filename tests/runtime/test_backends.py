"""Backend seam: resolution, time domains, sim bit-identity, rejection."""

import numpy as np
import pytest

from repro.core.api import aggregate_time, pack, ranking
from repro.machine import CM5, Machine, MachineSpec
from repro.machine.errors import TimeDomainError
from repro.machine.stats import ProcStats, RunResult, same_time_domain
from repro.runtime import (
    BACKEND_NAMES,
    Backend,
    BackendError,
    GangSupervisor,
    MpBackend,
    SimBackend,
    available_backends,
    get_backend,
)

SPEC = MachineSpec(tau=10e-6, mu=1e-6, delta=0.1e-6, name="test")


def _ring_program(ctx):
    ctx.phase("ring")
    ctx.work(5)
    ctx.send((ctx.rank + 1) % ctx.size, ctx.rank * 10, tag=3)
    msg = yield ctx.recv((ctx.rank - 1) % ctx.size, 3)
    return msg.payload


class TestResolution:
    def test_names(self):
        assert set(BACKEND_NAMES) == {"sim", "mp", "supervised"}
        assert set(available_backends()) == set(BACKEND_NAMES)

    def test_get_backend_by_name(self):
        assert isinstance(get_backend("sim"), SimBackend)
        assert isinstance(get_backend("mp"), MpBackend)
        assert isinstance(get_backend("supervised"), GangSupervisor)
        # The supervised backend is a process-wide singleton: every
        # string-name caller shares one warm gang.
        assert get_backend("supervised") is get_backend("supervised")

    def test_default_is_sim(self):
        assert get_backend().name == "sim"

    def test_instance_passthrough(self):
        backend = MpBackend(timeout=5.0)
        assert get_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("threads")

    def test_is_abstract(self):
        with pytest.raises(TypeError):
            Backend()  # run_spmd is abstract


class TestSimBitIdentity:
    """SimBackend must be the engine verbatim: same results, same clocks."""

    def test_matches_direct_machine_run(self):
        direct = Machine(4, SPEC).run(_ring_program)
        via = SimBackend().run_spmd(_ring_program, 4, spec=SPEC)
        assert via.results == direct.results
        assert via.elapsed == direct.elapsed
        assert via.phase_breakdown() == direct.phase_breakdown()
        assert [s.sends for s in via.stats] == [s.sends for s in direct.stats]

    def test_rank_args_both_ways(self):
        def prog(ctx, x):
            ctx.work(1)
            return x * 2

        by_list = SimBackend().run_spmd(
            prog, 3, rank_args=[(r,) for r in range(3)], spec=SPEC
        )
        by_maker = SimBackend().run_spmd(
            prog, 3, make_rank_args=lambda r, shared: (r,), spec=SPEC
        )
        assert by_list.results == by_maker.results == [0, 2, 4]

    def test_both_arg_styles_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            SimBackend().run_spmd(
                _ring_program, 2,
                rank_args=[(), ()], make_rank_args=lambda r, s: (),
                spec=SPEC,
            )


class TestTimeDomains:
    def test_sim_runs_are_simulated(self):
        run = SimBackend().run_spmd(_ring_program, 2, spec=SPEC)
        assert run.time_domain == "simulated"

    def test_mp_runs_are_wall(self):
        run = MpBackend(timeout=60).run_spmd(_ring_program, 2, spec=SPEC)
        assert run.time_domain == "wall"
        assert run.results == [10, 0]

    def test_run_result_validates_domain(self):
        with pytest.raises(ValueError, match="time_domain"):
            RunResult(results=[None], stats=[ProcStats(0)], time_domain="cpu")

    def test_same_time_domain(self):
        sim = RunResult(results=[None], stats=[ProcStats(0)])
        wall = RunResult(results=[None], stats=[ProcStats(0)],
                         time_domain="wall")
        assert same_time_domain([sim, sim]) == "simulated"
        with pytest.raises(TimeDomainError):
            same_time_domain([sim, wall])

    def test_aggregate_time_refuses_mixed_domains(self):
        mask = np.random.default_rng(0).random(64) < 0.5
        sim_run = ranking(mask, grid=2, spec=SPEC, backend="sim")
        mp_run = ranking(mask, grid=2, spec=SPEC, backend="mp")
        assert sim_run.time_domain == "simulated"
        assert mp_run.time_domain == "wall"
        # Same domain aggregates fine...
        total = aggregate_time([sim_run.run, sim_run.run])
        assert total == pytest.approx(2 * sim_run.run.elapsed)
        # ...mixing domains is an error, not a silently wrong number.
        with pytest.raises(TimeDomainError):
            aggregate_time([sim_run.run, mp_run.run])

    def test_report_carries_domain(self):
        from repro.obs import PhaseProfiler

        a = np.arange(64, dtype=np.float64)
        m = np.ones(64, dtype=bool)
        with PhaseProfiler() as prof:
            pack(a, m, grid=2, spec=SPEC, profiler=prof, backend="mp")
        assert prof.report.time_domain == "wall"
        assert prof.report.to_dict()["time_domain"] == "wall"
        assert "time=wall" in prof.report.summary()


class TestUnsupportedFeatures:
    def test_mp_rejects_simulated_budgets(self):
        with pytest.raises(BackendError, match="budget"):
            MpBackend().run_spmd(_ring_program, 2, step_budget=100)
        with pytest.raises(BackendError, match="budget"):
            MpBackend().run_spmd(_ring_program, 2, time_budget=1.0)

    def test_bad_timeout_rejected(self):
        with pytest.raises(ValueError):
            MpBackend(timeout=0)


class TestApiParity:
    """pack/ranking give bit-identical answers through the backend seam."""

    def test_pack_backend_sim_equals_default(self):
        rng = np.random.default_rng(1)
        a = rng.random(96)
        m = rng.random(96) < 0.4
        base = pack(a, m, grid=4, spec=SPEC)
        via = pack(a, m, grid=4, spec=SPEC, backend="sim")
        np.testing.assert_array_equal(base.vector, via.vector)
        assert base.total_ms == via.total_ms

    def test_pack_accepts_backend_instance(self):
        rng = np.random.default_rng(2)
        a = rng.random(64)
        m = rng.random(64) < 0.6
        res = pack(a, m, grid=2, spec=SPEC, backend=MpBackend(timeout=60))
        np.testing.assert_array_equal(res.vector[: res.size], a[m])
