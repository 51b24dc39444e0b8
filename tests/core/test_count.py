"""The COUNT intrinsic (reduction-only sibling of PACK)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import count
from repro.machine import MachineSpec

SPEC = MachineSpec(tau=10e-6, mu=1e-6, delta=0.1e-6, name="test")
NOCTRL = SPEC.with_(has_control_network=False)


class TestCount:
    @pytest.mark.parametrize("density", [0.0, 0.3, 1.0])
    def test_1d(self, density):
        rng = np.random.default_rng(0)
        m = rng.random(64) < density
        assert count(m, grid=4, block=2, spec=SPEC) == int(m.sum())

    def test_2d(self):
        rng = np.random.default_rng(1)
        m = rng.random((8, 16)) < 0.5
        assert count(m, grid=(2, 4), block="cyclic", spec=SPEC) == int(m.sum())

    def test_single_processor(self):
        m = np.array([True, False, True])
        assert count(m, grid=1, block=3, spec=SPEC) == 2

    @pytest.mark.parametrize("spec", [SPEC, NOCTRL])
    def test_with_and_without_control_network(self, spec):
        rng = np.random.default_rng(2)
        m = rng.random(64) < 0.7
        assert count(m, grid=8, block=4, spec=spec) == int(m.sum())

    def test_distribution_insensitive_cost(self):
        """Unlike ranking, COUNT's cost does not depend on the block size
        (no per-tile arrays) — the reason it is so much cheaper."""
        from repro.core import count_program
        from repro.hpf import GridLayout
        from repro.machine import Machine

        rng = np.random.default_rng(3)
        m = rng.random(1024) < 0.5

        def run(block):
            layout = GridLayout.create((1024,), (4,), block=block)
            blocks = layout.scatter(m)
            res = Machine(4, SPEC).run(
                count_program, rank_args=[(b, layout) for b in blocks]
            )
            return res.elapsed

        assert run(1) == pytest.approx(run(256))

    def test_count_cheaper_than_ranking(self):
        import repro

        rng = np.random.default_rng(4)
        m = rng.random(1024) < 0.5
        r = repro.ranking(m, grid=4, block=2, spec=SPEC)
        from repro.core import count_program
        from repro.hpf import GridLayout
        from repro.machine import Machine

        layout = GridLayout.create((1024,), (4,), block=2)
        res = Machine(4, SPEC).run(
            count_program, rank_args=[(b, layout) for b in layout.scatter(m)]
        )
        assert res.elapsed < r.run.elapsed


class TestSimulatedCostPin:
    """COUNT's simulated cost, pinned exactly on the CM-5 (one control
    network combine) and without a control network (point-to-point
    tree), so any change to its reduction must stay bit-identical."""

    MASK = np.random.default_rng(5).random((16, 32)) < 0.4

    # (P, grid, has_control_network) -> (elapsed, ctrl_ops per rank,
    # sends per rank, total words sent)
    PINS = {
        (4, (2, 2), True): (4.48e-05, 1, 0, 0),
        (8, (2, 4), True): (3.84e-05, 1, 0, 0),
        (4, (2, 2), False): (0.00018600000000000002, 0, 2, 8),
        (8, (2, 4), False): (0.0002662, 0, 3, 24),
    }

    @pytest.mark.parametrize("key", sorted(PINS, key=str))
    def test_exact_elapsed_and_traffic(self, key):
        from repro.core import count_program
        from repro.hpf import GridLayout
        from repro.machine import CM5, Machine

        P, grid, ctrl = key
        spec = CM5 if ctrl else CM5.with_(has_control_network=False)
        layout = GridLayout.create(self.MASK.shape, grid, block=(2, 4))
        res = Machine(P, spec).run(
            count_program, rank_args=[(b, layout) for b in layout.scatter(self.MASK)]
        )
        elapsed, ctrl_ops, sends, words = self.PINS[key]
        assert res.results == [int(self.MASK.sum())] * P
        assert res.elapsed == elapsed
        assert [s.clock for s in res.stats] == [elapsed] * P
        assert [s.ctrl_ops for s in res.stats] == [ctrl_ops] * P
        assert [s.sends for s in res.stats] == [sends] * P
        assert [s.recvs for s in res.stats] == [sends] * P
        assert sum(s.words_sent for s in res.stats) == words


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(1, 6),
    w=st.integers(1, 4),
    density=st.floats(0, 1),
    seed=st.integers(0, 99),
)
def test_property_count_matches_numpy(p, w, density, seed):
    n = p * w * 3
    rng = np.random.default_rng(seed)
    m = rng.random(n) < density
    assert count(m, grid=p, block=w, spec=SPEC) == int(m.sum())
