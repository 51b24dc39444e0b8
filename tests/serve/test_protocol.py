"""Wire protocol: parse/encode round-trips and input rejection."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.serve.protocol import (
    ProtocolError,
    decode_array,
    encode_array,
    encode_response,
    encode_result,
    error_body,
    parse_request,
)

MASK = np.arange(16) % 3 == 0
ARRAY = np.arange(16, dtype=np.float64)


def _payload(**over):
    doc = {
        "id": "r1",
        "op": "pack",
        "grid": [2],
        "scheme": "cms",
        "mask": encode_array(MASK),
        "array": encode_array(ARRAY),
    }
    doc.update(over)
    return doc


class TestArrays:
    @pytest.mark.parametrize("a", [
        np.arange(12, dtype=np.float64).reshape(3, 4),
        np.array([], dtype=np.int32),
        (np.arange(8) % 2 == 0),
    ])
    def test_roundtrip(self, a):
        back = decode_array(encode_array(a))
        assert back.dtype == a.dtype
        assert back.shape == a.shape
        np.testing.assert_array_equal(back, a)

    def test_bad_blob_rejected(self):
        with pytest.raises(ProtocolError):
            decode_array({"dtype": "float64", "shape": [2]})
        with pytest.raises(ProtocolError):
            decode_array({"dtype": "float64", "shape": [2], "data": "!!!"})
        with pytest.raises(ProtocolError):
            decode_array("not a blob")


class TestParse:
    def test_valid_pack(self):
        req = parse_request(json.dumps(_payload()))
        assert (req.id, req.op, req.grid, req.scheme) == \
            ("r1", "pack", (2,), "cms")
        np.testing.assert_array_equal(req.mask, MASK)
        np.testing.assert_array_equal(req.array, ARRAY)
        assert req.redistribute is None
        assert req.validate is False
        assert req.fingerprint

    def test_valid_unpack_and_ranking(self):
        k = int(MASK.sum())
        un = parse_request(json.dumps({
            "id": "u", "op": "unpack", "grid": [2], "scheme": "css",
            "mask": encode_array(MASK),
            "vector": encode_array(np.arange(k, dtype=float)),
            "field": encode_array(np.zeros(16)),
        }))
        assert un.vector.size == k
        rk = parse_request(json.dumps({
            "id": "k", "op": "ranking", "grid": [2],
            "mask": encode_array(MASK),
        }))
        assert rk.scheme == "css"  # non-pack default

    @pytest.mark.parametrize("line,why", [
        (b"{nope", "not valid JSON"),
        (b"[1,2]", "JSON object"),
        (json.dumps(_payload(id="")), "string 'id'"),
        (json.dumps({k: v for k, v in _payload().items() if k != "id"}),
         "string 'id'"),
        (json.dumps(_payload(op="compress")), "op must be one of"),
        (json.dumps(_payload(grid=[])), "grid"),
        (json.dumps(_payload(grid=[0])), "grid"),
        (json.dumps({k: v for k, v in _payload().items() if k != "mask"}),
         "mask"),
        (json.dumps({k: v for k, v in _payload().items() if k != "array"}),
         "'array' payload"),
        (json.dumps(_payload(scheme="xyz")), "scheme"),
        (json.dumps(_payload(options={"redistribute": "bogus"})),
         "redistribute"),
        (json.dumps(_payload(op="ranking", scheme="cms")), "sss/css"),
    ])
    def test_rejects(self, line, why):
        with pytest.raises(ProtocolError, match=why):
            parse_request(line)

    def test_shape_mismatch_rejected_before_decode(self):
        bad = _payload(array=encode_array(np.zeros(8)))
        with pytest.raises(ProtocolError, match="shape"):
            parse_request(json.dumps(bad))

    def test_redistribute_only_on_pack(self):
        k = int(MASK.sum())
        doc = {
            "id": "u", "op": "unpack", "grid": [2], "scheme": "css",
            "mask": encode_array(MASK),
            "vector": encode_array(np.arange(k, dtype=float)),
            "field": encode_array(np.zeros(16)),
            "options": {"redistribute": "selected"},
        }
        with pytest.raises(ProtocolError, match="'pack' only"):
            parse_request(json.dumps(doc))


class TestBatchKey:
    def test_same_geometry_same_key(self):
        a = parse_request(json.dumps(_payload(id="a")))
        b = parse_request(json.dumps(_payload(
            id="b", array=encode_array(-ARRAY))))
        assert a.batch_key() == b.batch_key() is not None

    def test_key_separates_mask_scheme_grid_validate(self):
        base = parse_request(json.dumps(_payload()))
        other_mask = parse_request(json.dumps(_payload(
            mask=encode_array(~MASK), array=encode_array(ARRAY))))
        other_scheme = parse_request(json.dumps(_payload(scheme="sss")))
        other_grid = parse_request(json.dumps(_payload(grid=[4])))
        validated = parse_request(json.dumps(_payload(
            options={"validate": True})))
        keys = {r.batch_key() for r in
                (base, other_mask, other_scheme, other_grid, validated)}
        assert len(keys) == 5

    def test_solo_only_requests_have_no_key(self):
        k = int(MASK.sum())
        un = parse_request(json.dumps({
            "id": "u", "op": "unpack", "grid": [2], "scheme": "css",
            "mask": encode_array(MASK),
            "vector": encode_array(np.arange(k, dtype=float)),
            "field": encode_array(np.zeros(16)),
        }))
        red = parse_request(json.dumps(_payload(
            options={"redistribute": "selected"})))
        padded = parse_request(json.dumps(_payload(
            vector=encode_array(np.zeros(10)))))
        assert un.batch_key() is None
        assert red.batch_key() is None
        assert padded.batch_key() is None

    def test_ranking_coalescible(self):
        a = parse_request(json.dumps(
            _payload(id="a", op="ranking", scheme="css", array=None)))
        b = parse_request(json.dumps(
            _payload(id="b", op="ranking", scheme="css", array=None)))
        assert a.batch_key() == b.batch_key() is not None


def test_encode_response_and_error_body():
    line = encode_response({"id": "x", "ok": True})
    assert line.endswith(b"\n")
    assert json.loads(line) == {"id": "x", "ok": True}
    body = error_body("x", "overloaded", "busy")
    assert body["ok"] is False
    assert body["error"]["code"] == "overloaded"


# ------------------------------------------------ spliced response writer
_DTYPES = st.sampled_from([
    "bool", "int8", "int16", "int32", "int64", "uint8",
    "float32", "float64", "complex128",
])
_SHAPES = st.one_of(
    st.just(()),  # 0-d
    hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6),
)
_IDS = st.one_of(
    st.sampled_from(['q"1', "back\\slash", "r\u00e9sum\u00e9-\u2603", "\n"]),
    st.text(min_size=1, max_size=12),
)


@settings(max_examples=150, deadline=None)
@given(
    a=hnp.arrays(_DTYPES, _SHAPES),
    rid=_IDS,
    plan=st.sampled_from(["hit", "miss", None]),
    queue_ms=st.floats(allow_nan=False),
)
def test_spliced_result_matches_plain_json(a, rid, plan, queue_ms):
    envelope = {"id": rid, "ok": True, "op": "pack", "size": int(a.size),
                "plan": plan, "batch": {"size": 2, "coalesced": True},
                "timing": {"queue_ms": queue_ms}}
    line = encode_response(dict(envelope, result=encode_result(a)))
    assert line.endswith(b"\n") and line.count(b"\n") == 1
    doc = json.loads(line)
    assert doc == json.loads(json.dumps(dict(envelope,
                                             result=encode_array(a))))
    back = decode_array(doc["result"])
    assert back.dtype == a.dtype and back.shape == a.shape
    assert back.tobytes() == np.ascontiguousarray(a).tobytes()


@given(rid=st.one_of(st.none(), _IDS), message=st.text(max_size=40))
def test_error_bodies_take_the_plain_path(rid, message):
    body = error_body(rid, "bad_request", message)
    line = encode_response(body)
    assert line == (json.dumps(body, separators=(",", ":")) + "\n").encode()
    assert json.loads(line) == body
