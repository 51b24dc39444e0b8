"""Inputs are a pure function of the workload and the seed."""

import json

import numpy as np

from benchmarks.e2e import workloads
from benchmarks.e2e.inputs import LibInputs, ServiceStream, array_digest, blob


def _bytes(wl_name: str, seed: int) -> list[bytes]:
    stream = ServiceStream(workloads.get(wl_name), seed)
    reqs = (stream.warm_combos() + stream.open_loop(0.5)
            + stream.phase("capacity", 40))
    return [b"".join(r.parts) for r in reqs]


def test_same_seed_gives_identical_request_bytes():
    for name in ("serve_hot", "serve_gang"):
        assert _bytes(name, 3) == _bytes(name, 3)


def test_different_seed_gives_different_bytes():
    for name in ("serve_hot", "serve_gang"):
        a, b = _bytes(name, 3), _bytes(name, 4)
        assert a != b
        # Not just the ids: the payloads differ too.
        strip = [line.split(b",", 1)[1] for line in a[:10]]
        assert strip != [line.split(b",", 1)[1] for line in b[:10]]


def test_a_phase_is_one_stream_however_it_is_cut():
    stream = ServiceStream(workloads.get("serve_gang"), 7)
    whole = [b"".join(r.parts) for r in stream.phase("capacity", 90)]
    cut = stream.phase("capacity", 40, first=50)
    assert [b"".join(r.parts) for r in cut] == whole[50:]
    endless = stream.endless("capacity", chunk=16)
    assert [b"".join(next(endless).parts) for _ in range(90)] == whole


def test_requests_are_valid_protocol_lines():
    from repro.serve.protocol import parse_request

    stream = ServiceStream(workloads.get("serve_gang"), 0)
    reqs = stream.phase("open", 60)
    ops = set()
    for r in reqs:
        req = parse_request(b"".join(r.parts))
        assert req.id == r.rid
        ops.add(req.op)
        assert np.array_equal(req.mask, stream.mask(r.key[1]))
    assert ops == {"pack", "unpack", "ranking"}
    assert any(r.key[1][0] == "f" for r in reqs), "no fresh masks drawn"


def test_open_loop_due_times_are_poisson_at_the_rate():
    wl = workloads.get("serve_hot")
    reqs = ServiceStream(wl, 1).open_loop(5.0)
    due = [r.t_due for r in reqs]
    assert due == sorted(due) and 0 < due[0] and due[-1] < 5.0
    assert abs(len(reqs) / 5.0 - wl.rate) < 0.1 * wl.rate


def test_oracle_digest_matches_blob_digest():
    a = np.arange(7, dtype=np.int64)
    doc = json.loads(json.dumps(blob(a)))
    from benchmarks.e2e.inputs import blob_digest

    assert blob_digest(doc) == array_digest(a)


def test_lib_inputs_are_seeded():
    a, b, c = LibInputs(2), LibInputs(2), LibInputs(5)
    assert len(a) == 24
    for i in (0, 1, 2, 23):
        assert np.array_equal(a.get(i).mask, b.get(i).mask)
        assert not np.array_equal(a.get(i).mask, c.get(i).mask)
    kinds = [a.get(i).kind.name for i in range(3)]
    assert kinds == ["pack1d", "unpack1d", "pack2d"]
