"""Gang PACK amortization (library extension).

k arrays packed under one mask share the ranking stage, the PRS, the
send-vector derivation and the compact schemes' second scan; only the data
movement repeats.  The benchmark pins the amortization factor a runtime
gains over k solo PACK calls — the pattern every multi-attribute particle
code hits.
"""

import numpy as np
import pytest

import repro
from repro.core.multi import pack_many
from repro.machine import CM5

RNG = np.random.default_rng(0)
K = 4
ARRAYS = [RNG.random(8192) for _ in range(K)]
MASK = RNG.random(8192) < 0.5


@pytest.mark.paper_artifact("Gang PACK (extension)")
def test_gang_amortizes_ranking(benchmark, reports):
    def run():
        gang = pack_many(ARRAYS, MASK, grid=16, block=4,
                         scheme="css", spec=CM5, validate=False).run
        solo = sum(
            repro.pack(a, MASK, grid=16, block=4, scheme="css", spec=CM5,
                       validate=False).run.elapsed
            for a in ARRAYS
        )
        return gang.elapsed, solo

    gang_s, solo_s = benchmark(run)
    assert gang_s < 0.8 * solo_s
    reports["gang"] = (
        f"Gang PACK of {K} arrays (N=8192, P=16, CYCLIC(4), 50% mask):\n"
        f"  {K} solo packs {solo_s * 1e3:8.3f} ms\n"
        f"  gang pack     {gang_s * 1e3:8.3f} ms "
        f"({gang_s / solo_s:.0%} of solo)"
    )


@pytest.mark.paper_artifact("Gang PACK (extension)")
def test_gang_saving_grows_with_cyclic_distribution(benchmark):
    """The shared stages are exactly the distribution-sensitive ones, so
    the gang saving is largest where ranking is dearest: cyclic layouts."""

    def ratio(block):
        gang = pack_many(ARRAYS, MASK, grid=16, block=block,
                         scheme="css", spec=CM5, validate=False).run
        solo = sum(
            repro.pack(a, MASK, grid=16, block=block, scheme="css", spec=CM5,
                       validate=False).run.elapsed
            for a in ARRAYS
        )
        return gang.elapsed / solo

    def run():
        return ratio(1), ratio(512)

    cyclic_ratio, block_ratio = benchmark(run)
    assert cyclic_ratio < block_ratio
