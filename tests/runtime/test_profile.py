"""Cross-rank runtime profiling: merged traces, comm matrices, domains.

Covers the :mod:`repro.obs.runtime` seam from both ends: the mp backend's
shared-memory span recording (merged into one wall-aligned trace) and the
simulator adapter (same shape, simulated clock, bit-identical results).
"""

import json

import numpy as np
import pytest

from repro.machine import MachineSpec
from repro.machine.errors import TimeDomainError
from repro.obs import RUNTIME_PHASES, RuntimeProfiler, validate_chrome_trace
from repro.runtime import MpBackend, SimBackend
from repro.runtime.primitives import allreduce, barrier

SPEC = MachineSpec(tau=10e-6, mu=1e-6, delta=0.1e-6, name="test")
NPROCS = 4


def _comm_program(ctx):
    """Seeded deterministic all-pairs exchange plus one collective.

    Each rank sends one seeded, variably-sized array to every other rank
    (tag = distance), receives its P-1 counterparts, and joins an
    allreduce — so the profile sees point-to-point traffic of known
    deterministic volume *and* collective protocol messages that must
    stay out of the comm matrix.
    """
    ctx.phase("exchange")
    rng = np.random.default_rng(1000 + ctx.rank)
    total = 0.0
    for k in range(1, ctx.size):
        dest = (ctx.rank + k) % ctx.size
        payload = rng.random(int(rng.integers(8, 64)))
        ctx.send(dest, payload, tag=k)
    for k in range(1, ctx.size):
        msg = yield ctx.recv((ctx.rank - k) % ctx.size, k)
        total += float(np.sum(msg.payload))
    ctx.phase("reduce")
    gang_total = yield from allreduce(ctx, total, key=7)
    yield from barrier(ctx, key=8)
    return gang_total


def _mp_profile(nprocs=NPROCS, transport=None, **kw):
    prof = RuntimeProfiler(**kw)
    run = MpBackend(timeout=120.0, transport=transport).run_spmd(
        _comm_program, nprocs, spec=SPEC, profile=prof
    )
    assert prof.profile is not None
    return run, prof.profile


@pytest.fixture(scope="module")
def mp_profile():
    """One profiled 4-rank mp run shared by the read-only assertions."""
    return _mp_profile()


class TestMpTraceMerge:
    def test_trace_is_valid_chrome_json(self, tmp_path, mp_profile):
        _, profile = mp_profile
        out = tmp_path / "trace.json"
        n = profile.write_chrome_trace(out)
        doc = json.loads(out.read_text())
        assert len(doc["traceEvents"]) == n
        validate_chrome_trace(doc["traceEvents"])
        assert doc["otherData"]["time_domain"] == "wall"
        assert doc["otherData"]["timestamp_unit"] == "wall microseconds"
        assert doc["otherData"]["nprocs"] == NPROCS

    def test_ranks_map_to_distinct_lanes(self, mp_profile):
        _, profile = mp_profile
        events = profile.to_chrome_trace()
        lane_tids = {
            e["tid"] for e in events
            if e.get("cat") == "runtime" and e["ph"] == "X"
        }
        assert lane_tids == set(range(NPROCS))
        gang_tids = {e["tid"] for e in events if e.get("cat") == "gang"}
        assert gang_tids == {NPROCS}  # the host lane is its own track
        names = {
            e["tid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names[NPROCS] == "gang (host)"
        assert all(names[r] == f"rank {r}" for r in range(NPROCS))

    def test_per_rank_timestamps_monotonic(self, mp_profile):
        _, profile = mp_profile
        assert len(profile.lanes) == NPROCS
        for lane in profile.lanes:
            assert lane.t_start <= lane.t_ready <= lane.t_done
            starts = [t0 for _, t0, t1 in lane.spans]
            assert starts == sorted(starts)  # single writer, time order
            assert all(t1 >= t0 for _, t0, t1 in lane.spans)
            assert all(t0 >= 0.0 for _, t0, _ in lane.spans)

    def test_attribution_sums_to_host_wall(self, mp_profile):
        _, profile = mp_profile
        assert profile.time_domain == "wall"
        assert profile.backend == "mp"
        assert set(profile.phase_seconds) <= set(RUNTIME_PHASES)
        # The compute residual makes the table telescope to the total.
        assert profile.attributed_fraction == pytest.approx(1.0, abs=1e-6)
        assert profile.dropped_events == 0

    @pytest.mark.parametrize("transport", ["ring", "queue"])
    def test_phase_table_lists_only_own_transport(self, transport):
        _, profile = _mp_profile(transport=transport)
        assert profile.transport == transport
        assert profile.attributed_fraction == pytest.approx(1.0, abs=1e-6)
        # The table and summary list only this transport's phases.
        own = {"ring": {"encode", "ring_send", "ring_wait"},
               "queue": {"pickle", "queue_send", "queue_wait"}}
        other = own["queue" if transport == "ring" else "ring"]
        table = profile.phase_table()
        assert own[transport] <= set(table)
        assert not other & set(table)
        assert sum(row["seconds"] for row in table.values()) == pytest.approx(
            profile.total_seconds, rel=1e-6)
        listed = {line.split()[0] for line in profile.summary().splitlines()
                  if line.endswith("%") and " ms " in line}
        assert listed == set(table)

    def test_gang_spans_cover_host_side(self, mp_profile):
        _, profile = mp_profile
        names = [name for name, _, _ in profile.gang_spans]
        assert names == ["shm_setup", "spawn", "collect", "reap"]


class TestCommMatrix:
    def test_conservation(self, mp_profile):
        run, profile = mp_profile
        profile.validate_conservation()  # raises on any violation
        # All-pairs: every off-diagonal cell is exactly one message.
        expect = [
            [0 if r == c else 1 for c in range(NPROCS)] for r in range(NPROCS)
        ]
        assert profile.comm_msgs == expect
        assert [s.sends for s in run.stats] == profile.sends_per_rank

    def test_matrix_is_deterministic(self, mp_profile):
        _, first = mp_profile
        _, second = _mp_profile()
        second.assert_comparable(first)
        assert second.comm_msgs == first.comm_msgs
        assert second.comm_bytes == first.comm_bytes  # seeded payload sizes
        assert second.pickle_bytes_per_rank == first.pickle_bytes_per_rank

    def test_matrix_dict_is_self_checking(self, tmp_path, mp_profile):
        _, profile = mp_profile
        out = tmp_path / "matrix.json"
        out.write_text(json.dumps(profile.matrix_dict()))
        doc = json.loads(out.read_text())
        n = doc["nprocs"]
        assert doc["byte_meaning"] == (
            "encoded wire bytes" if doc["transport"] == "ring"
            else "pickled payload bytes"
        )
        for r in range(n):
            assert sum(doc["msgs"][r]) == doc["sends_per_rank"][r]
            col = sum(doc["msgs"][q][r] for q in range(n))
            assert col == doc["recvs_per_rank"][r]
            col_b = sum(doc["bytes"][q][r] for q in range(n))
            assert col_b == doc["recv_bytes_per_rank"][r]

    def test_conservation_violation_is_named(self, mp_profile):
        _, profile = mp_profile
        import copy

        broken = copy.deepcopy(profile)
        broken.comm_msgs[2][3] += 1
        with pytest.raises(ValueError, match="row 2"):
            broken.validate_conservation()


class TestTimeDomains:
    def test_cross_domain_comparison_refused(self, mp_profile):
        _, wall = mp_profile
        prof = RuntimeProfiler()
        SimBackend().run_spmd(_comm_program, NPROCS, spec=SPEC, profile=prof)
        sim = prof.profile
        assert sim.time_domain == "simulated"
        with pytest.raises(TimeDomainError):
            sim.assert_comparable(wall)
        with pytest.raises(TimeDomainError):
            wall.assert_comparable(sim)

    def test_sim_trace_stamped_simulated(self, tmp_path):
        prof = RuntimeProfiler()
        SimBackend().run_spmd(_comm_program, NPROCS, spec=SPEC, profile=prof)
        out = tmp_path / "sim.trace.json"
        prof.profile.write_chrome_trace(out)
        doc = json.loads(out.read_text())
        assert doc["otherData"]["time_domain"] == "simulated"


class TestSimBitIdentity:
    def test_profiling_does_not_change_results_or_clocks(self):
        plain = SimBackend().run_spmd(_comm_program, NPROCS, spec=SPEC)
        prof = RuntimeProfiler()
        profiled = SimBackend().run_spmd(
            _comm_program, NPROCS, spec=SPEC, profile=prof
        )
        assert profiled.results == plain.results
        assert profiled.elapsed == plain.elapsed
        assert profiled.phase_breakdown() == plain.phase_breakdown()

    def test_sim_profile_shape(self):
        prof = RuntimeProfiler()
        run = SimBackend().run_spmd(_comm_program, NPROCS, spec=SPEC, profile=prof)
        profile = prof.profile
        assert profile.nprocs == NPROCS
        assert profile.total_seconds == run.elapsed
        # Simulated attribution covers the elapsed clock by construction.
        assert profile.attributed_fraction == pytest.approx(1.0, abs=1e-9)
        assert set(profile.phase_seconds)  # algorithm's own phase labels
        validate_chrome_trace(profile.to_chrome_trace())

    def test_sim_trace_has_no_gang_lane(self):
        # No host gang under sim: one thread_name per rank and nothing else.
        prof = RuntimeProfiler()
        SimBackend().run_spmd(_comm_program, NPROCS, spec=SPEC, profile=prof)
        names = [e["args"]["name"] for e in prof.profile.to_chrome_trace()
                 if e["ph"] == "M" and e["name"] == "thread_name"]
        assert names == [f"rank {r}" for r in range(NPROCS)]

    def test_summary_pads_to_the_longest_phase(self):
        prof = RuntimeProfiler()
        SimBackend().run_spmd(_comm_program, NPROCS, spec=SPEC, profile=prof)
        profile = prof.profile
        profile.phase_seconds["pack.ranking.intermediate.dim0"] = 1e-3
        rows = [line for line in profile.summary().splitlines()
                if line.endswith("%") and " ms " in line]
        assert len(rows) == len(profile.phase_seconds)
        assert len({line.index(" ms ") for line in rows}) == 1


class TestProfilerHandle:
    def test_ring_capacity_validated(self):
        with pytest.raises(ValueError, match="ring_capacity"):
            RuntimeProfiler(ring_capacity=4)

    def test_finish_requires_a_run(self):
        with pytest.raises(ValueError, match="no profile recorded"):
            RuntimeProfiler().finish(op="pack")
