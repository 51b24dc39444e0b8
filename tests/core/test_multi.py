"""Gang PACK: k arrays under one mask share one ranking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.multi import pack_many
from repro.machine import MachineSpec
from repro.serial import pack_reference

SPEC = MachineSpec(tau=10e-6, mu=1e-6, delta=0.1e-6, name="test")


class TestGangCorrectness:
    @pytest.mark.parametrize("scheme", ["sss", "css", "cms"])
    def test_each_vector_matches_solo_pack(self, scheme):
        rng = np.random.default_rng(0)
        arrays = [rng.random(128) for _ in range(3)]
        m = rng.random(128) < 0.5
        vectors = pack_many(arrays, m, grid=4, block=4, scheme=scheme,
                            spec=SPEC).vectors
        for a, v in zip(arrays, vectors):
            np.testing.assert_array_equal(v, pack_reference(a, m))

    def test_2d(self):
        rng = np.random.default_rng(1)
        arrays = [rng.random((16, 16)) for _ in range(2)]
        m = rng.random((16, 16)) < 0.3
        vectors = pack_many(arrays, m, grid=(2, 2), block=(2, 2), spec=SPEC).vectors
        for a, v in zip(arrays, vectors):
            np.testing.assert_array_equal(v, pack_reference(a, m))

    def test_mixed_dtypes(self):
        rng = np.random.default_rng(2)
        arrays = [rng.random(64), (rng.random(64) * 100).astype(np.int64)]
        m = rng.random(64) < 0.5
        vectors = pack_many(arrays, m, grid=4, block=2, spec=SPEC).vectors
        assert vectors[0].dtype == np.float64
        assert vectors[1].dtype == np.int64

    def test_empty_gang_rejected(self):
        with pytest.raises(ValueError):
            pack_many([], np.ones(8, bool), grid=2, block=2, spec=SPEC)

    def test_single_array_gang(self):
        rng = np.random.default_rng(3)
        a = rng.random(64)
        m = rng.random(64) < 0.7
        vectors = pack_many([a], m, grid=4, block=2, spec=SPEC).vectors
        np.testing.assert_array_equal(vectors[0], pack_reference(a, m))


class TestAmortization:
    def test_gang_cheaper_than_solo_packs(self):
        """k gang-packed arrays must cost well under k solo packs — the
        ranking, PRS, send-vector and rescan stages are shared."""
        rng = np.random.default_rng(4)
        k = 4
        arrays = [rng.random(2048) for _ in range(k)]
        m = rng.random(2048) < 0.5

        gang_run = pack_many(arrays, m, grid=16, block=4,
                             scheme="css", spec=SPEC).run
        solo_total = sum(
            repro.pack(a, m, grid=16, block=4, scheme="css", spec=SPEC).run.elapsed
            for a in arrays
        )
        assert gang_run.elapsed < 0.75 * solo_total

    def test_ranking_charged_once(self):
        rng = np.random.default_rng(5)
        arrays = [rng.random(512) for _ in range(3)]
        m = rng.random(512) < 0.5
        run = pack_many(arrays, m, grid=4, block=4, scheme="css", spec=SPEC).run
        names = set(run.phase_names())
        # One ranking phase set; three per-array comm/compose phases.
        assert "gang.ranking.initial" in names
        assert {f"gang.comm.{k}" for k in range(3)} <= names
        assert "gang.ranking.initial.1" not in names


@settings(max_examples=15, deadline=None)
@given(
    k=st.integers(1, 4),
    density=st.floats(0, 1),
    w=st.integers(1, 4),
    seed=st.integers(0, 99),
)
def test_property_gang_matches_solo(k, density, w, seed):
    rng = np.random.default_rng(seed)
    n = 4 * w * 4
    arrays = [rng.random(n) for _ in range(k)]
    m = rng.random(n) < density
    vectors = pack_many(arrays, m, grid=4, block=w, spec=SPEC).vectors
    for a, v in zip(arrays, vectors):
        np.testing.assert_array_equal(v, pack_reference(a, m))
