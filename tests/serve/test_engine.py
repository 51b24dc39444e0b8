"""ExecutionEngine: coalesced PACK batches report their own plan outcome."""

import numpy as np

from repro.core import plan as plan_mod
from repro.serial import pack_reference
from repro.serve.engine import ExecutionEngine
from repro.serve.protocol import Request, decode_array

MASK = np.arange(64) % 3 != 0


def _pack(rid, scale):
    return Request(id=rid, op="pack", grid=(4,), block=None, scheme="cms",
                   mask=MASK, array=np.arange(64, dtype=float) * scale,
                   validate=True)


def _decode(body):
    return decode_array(body["result"])


def test_coalesced_batch_reports_miss_then_hit(monkeypatch):
    hashed = []
    real = plan_mod.mask_fingerprint
    monkeypatch.setattr(plan_mod, "mask_fingerprint",
                        lambda m: hashed.append(1) or real(m))
    engine = ExecutionEngine()
    for expected in ("miss", "hit"):
        reqs = [_pack("a", 1.0), _pack("b", -2.0), _pack("c", 0.5)]
        hashed.clear()
        bodies = engine.execute(reqs)
        # The label comes from the batch's own lookup: one key, one hash.
        assert len(hashed) == 1
        assert [b["id"] for b in bodies] == ["a", "b", "c"]
        assert [b["plan"] for b in bodies] == [expected] * 3
        for req, body in zip(reqs, bodies):
            assert body["ok"]
            np.testing.assert_array_equal(
                _decode(body), pack_reference(req.array, MASK))
    stats = engine.plan_cache.stats()
    assert (stats.misses, stats.hits) == (1, 1)

