"""Golden-value regression tests.

The simulator is deterministic, so canonical configurations have exact
simulated times.  These pins protect the calibrated cost model: an
accidental change to any charge formula, message size, or scheduling
detail moves a golden value and fails here — with a clear instruction to
either fix the regression or consciously re-baseline (and re-check
EXPERIMENTS.md, whose recorded tables depend on the same constants).
"""

import numpy as np
import pytest

import repro
from repro.workloads import random_mask

# Canonical 1-D workload: N=4096, P=16, CYCLIC(8), 50% mask (seed 7).
A1 = np.arange(4096.0)
M1 = random_mask((4096,), 0.5, seed=7)

GOLDEN_PACK = {
    # scheme -> (total_ms, local_ms, words)
    "sss": (1.9024, 0.2504, 3948),
    "css": (1.8315, 0.1795, 3948),
    "cms": (1.75635, 0.14475, 2954),
}


class TestGoldenPack:
    @pytest.mark.parametrize("scheme", sorted(GOLDEN_PACK))
    def test_1d_canonical(self, scheme):
        total, local, words = GOLDEN_PACK[scheme]
        res = repro.pack(A1, M1, grid=16, block=8, scheme=scheme)
        assert res.total_ms == pytest.approx(total, abs=1e-4)
        assert res.local_ms == pytest.approx(local, abs=1e-4)
        assert res.total_words == words

    def test_scheme_ordering_pinned(self):
        # CMS < CSS < SSS at this configuration — the Figure 4 ordering.
        t = {
            s: repro.pack(A1, M1, grid=16, block=8, scheme=s).total_ms
            for s in GOLDEN_PACK
        }
        assert t["cms"] < t["css"] < t["sss"]

    def test_2d_canonical(self):
        a = np.arange(64 * 64, dtype=float).reshape(64, 64)
        m = random_mask((64, 64), 0.3, seed=9)
        res = repro.pack(a, m, grid=(4, 4), block=(4, 4), scheme="cms")
        assert res.size == 1221
        assert res.total_ms == pytest.approx(1.36285, abs=1e-4)


class TestGoldenUnpack:
    def test_1d_canonical(self):
        v = np.arange(float(M1.sum()))
        res = repro.unpack(v, M1, np.zeros(4096), grid=16, block=8, scheme="css")
        assert res.total_ms == pytest.approx(3.1116, abs=1e-4)


class TestGoldenStability:
    def test_repeated_runs_bit_identical(self):
        r1 = repro.pack(A1, M1, grid=16, block=8, scheme="cms")
        r2 = repro.pack(A1, M1, grid=16, block=8, scheme="cms")
        assert r1.total_ms == r2.total_ms
        assert r1.times == r2.times

    def test_mask_workload_pinned(self):
        # The golden values depend on the mask generator staying stable.
        assert int(M1.sum()) == 2106
        assert M1[:8].tolist() == [False, True, True, True, True, True, False, True]


# Gang PACK of three arrays under M1 (N=4096, P=16, CYCLIC(8)); the k-th
# array is A1 * (k + 1).  Values taken before the gang shared PACK's
# compile-prefix and data-movement generators; a plan hit replays the
# prefix, so it must read exactly the same as a cache-off run.
A3 = [A1 * (k + 1) for k in range(3)]
GOLDEN_GANG = {
    # scheme -> (elapsed, messages, words, phase -> seconds)
    "cms": (0.00475715, 720, 8862, {
        "gang.comm.0": 0.0014597,
        "gang.comm.1": 0.001455900000000001,
        "gang.comm.2": 0.0014558999999999996,
        "gang.compose.0": 2.4999999999999998e-05,
        "gang.compose.1": 2.4999999999999998e-05,
        "gang.compose.2": 2.4999999999999998e-05,
        "gang.decompose.0": 2.4e-05,
        "gang.decompose.1": 2.4e-05,
        "gang.decompose.2": 2.4e-05,
        "gang.ranking.final": 3.2e-06,
        "gang.ranking.initial": 2.88e-05,
        "gang.ranking.intermediate.dim0": 3.2e-06,
        "gang.ranking.prs.dim0": 0.000158,
        "gang.rescan": 3.99e-05,
        "gang.sendl": 2.1249999999999998e-05,
    }),
    "sss": (0.005058999999999998, 720, 11844, {
        "gang.comm.0": 0.0015137999999999998,
        "gang.comm.1": 0.0015038999999999999,
        "gang.comm.2": 0.0015038999999999968,
        "gang.compose.0": 4.4699999999999996e-05,
        "gang.compose.1": 4.4699999999999996e-05,
        "gang.compose.2": 4.4699999999999996e-05,
        "gang.decompose.0": 3.96e-05,
        "gang.decompose.1": 3.96e-05,
        "gang.decompose.2": 3.96e-05,
        "gang.ranking.final": 3.2e-06,
        "gang.ranking.initial": 0.00011499999999999999,
        "gang.ranking.intermediate.dim0": 3.2e-06,
        "gang.ranking.prs.dim0": 0.00017779999999999998,
        "gang.sendl": 4.4699999999999996e-05,
    }),
}


class TestGoldenGang:
    @staticmethod
    def _assert_pinned(run, scheme):
        elapsed, messages, words, phases = GOLDEN_GANG[scheme]
        assert run.elapsed == elapsed
        assert run.total_messages == messages
        assert run.total_words == words
        assert run.phase_breakdown() == phases

    @pytest.mark.parametrize("scheme", sorted(GOLDEN_GANG))
    def test_cache_off(self, scheme):
        res = repro.pack_many(A3, M1, grid=16, block=8, scheme=scheme)
        self._assert_pinned(res.run, scheme)

    @pytest.mark.parametrize("scheme", sorted(GOLDEN_GANG))
    def test_plan_hit(self, scheme):
        cache = repro.PlanCache()
        repro.pack_many(A3, M1, grid=16, block=8, scheme=scheme,
                        plan_cache=cache)
        res = repro.pack_many(A3, M1, grid=16, block=8, scheme=scheme,
                              plan_cache=cache)
        assert res.plan_info["cache"] == "hit"
        self._assert_pinned(res.run, scheme)
