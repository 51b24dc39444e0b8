"""Wire protocol for ``repro.serve``: newline-delimited JSON over TCP.

One request per line, one response per line, in any order (responses
carry the request ``id``, so clients may pipeline).  Array payloads ride
as the same ``{"dtype", "shape", "data": base64}`` blobs the plan
serialization uses (:mod:`repro.core.plan`), so a packed vector returned
by the service is byte-comparable across runs and modes — the property
the coalescing bit-identity tests and ``bench_serve`` lean on.

Request::

    {"id": "r1", "op": "pack", "grid": [2, 2], "block": null,
     "scheme": "cms", "mask": {...}, "array": {...},
     "options": {"validate": false}}

``op`` is ``"pack"`` (needs ``array``; optional ``vector`` = Fortran's
VECTOR argument; optional ``options.redistribute``), ``"unpack"`` (needs
``vector`` and ``field``) or ``"ranking"`` (mask only).  Responses are
``{"id", "ok": true, "op", "result", "size", "plan", "batch", "timing"}``
or ``{"id", "ok": false, "error": {"code", "message"}}`` with codes
``bad_request`` / ``overloaded`` / ``shutting_down`` / ``internal``.
"""

from __future__ import annotations

import base64
import json
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from ..core.plan import _nd_from_dict, mask_fingerprint

__all__ = [
    "MAX_LINE",
    "ProtocolError",
    "Request",
    "decode_array",
    "encode_array",
    "encode_response",
    "encode_result",
    "error_body",
    "parse_request",
]

#: Per-line byte budget for the server's stream reader: bounds worst-case
#: memory per connection (a 64 MiB line fits a ~24 MiB float64 payload).
MAX_LINE = 64 * 1024 * 1024

_SEP = (",", ":")
_RESULT_OPEN = '{"result":{'
_OPS = ("pack", "unpack", "ranking")
_REDISTRIBUTE = (None, "selected", "whole")


class ProtocolError(ValueError):
    """A request the server cannot act on; becomes a ``bad_request``
    (or the carried ``code``) error response."""

    def __init__(self, message: str, code: str = "bad_request"):
        self.code = code
        super().__init__(message)


def encode_array(a: np.ndarray) -> dict:
    """Serialize an ndarray as a ``{"dtype", "shape", "data": b64}`` blob."""
    blob = encode_result(a)
    blob["data"] = blob["data"].decode("ascii")
    return blob


def encode_result(a: np.ndarray) -> dict:
    """Response-side :func:`encode_array`: the same blob, but ``data`` is
    base64 *bytes*, which :func:`encode_response` splices into the line
    as is, so the JSON encoder never scans (or re-escapes) the payload."""
    a = np.asarray(a, order="C")  # keeps 0-d shape, unlike ascontiguousarray
    return {
        "dtype": str(a.dtype),
        "shape": list(a.shape),
        "data": base64.b64encode(a),
    }


def decode_array(d: Mapping[str, Any], what: str = "array") -> np.ndarray:
    """Inverse of :func:`encode_array`; raises :class:`ProtocolError` on a
    malformed blob."""
    if not isinstance(d, Mapping) or not {"dtype", "shape", "data"} <= set(d):
        raise ProtocolError(
            f"{what}: expected an array blob with dtype/shape/data"
        )
    try:
        return _nd_from_dict(d)
    except Exception as exc:
        raise ProtocolError(f"{what}: undecodable array blob: {exc}") from None


@dataclass
class Request:
    """One parsed, validated request, ready for the batcher."""

    id: str
    op: str
    grid: tuple[int, ...]
    block: Any
    scheme: str
    mask: np.ndarray
    array: np.ndarray | None = None
    vector: np.ndarray | None = None
    field_array: np.ndarray | None = None
    redistribute: str | None = None
    validate: bool = False
    options: dict = field(default_factory=dict)
    fingerprint: str = ""

    def batch_key(self) -> tuple | None:
        """Compatibility key for coalescing, or ``None`` for solo-only.

        PACK requests over the same mask, geometry and scheme coalesce
        into one :func:`~repro.core.multi.pack_many` gang (the batcher
        checks the window and size); ranking requests with one key
        deduplicate into a single execution.  UNPACK, redistribution
        pre-passes and VECTOR-padded packs always run solo — there is no
        batched execution path that preserves their exact semantics.
        """
        if self.op == "unpack" or self.redistribute is not None \
                or self.vector is not None:
            return None
        block = self.block
        if isinstance(block, list):
            block = tuple(block)
        return (
            self.op, self.fingerprint, self.mask.shape, self.grid, block,
            self.scheme, self.validate,
        )


def _shape_of(blob: Mapping) -> tuple:
    return tuple(blob["shape"]) if isinstance(blob, Mapping) else ()


#: Coalescing works because masks recur across requests, which also means
#: the server decodes and fingerprints the *same* mask blob once per
#: request.  Memoize both on the raw base64 text; entries are returned
#: read-only so concurrent requests can share one array safely.
_MASK_MEMO_CAPACITY = 64
_mask_memo: OrderedDict[tuple, tuple[np.ndarray, str]] = OrderedDict()


def _decode_mask(blob: Mapping[str, Any]) -> tuple[np.ndarray, str]:
    data = blob.get("data") if isinstance(blob, Mapping) else None
    key = None
    if isinstance(data, str):
        key = (blob.get("dtype"), _shape_of(blob), data)
        hit = _mask_memo.get(key)
        if hit is not None:
            _mask_memo.move_to_end(key)
            return hit
    mask = decode_array(blob, "mask").astype(bool)
    mask.flags.writeable = False
    fingerprint = mask_fingerprint(mask)
    if key is not None:
        _mask_memo[key] = (mask, fingerprint)
        while len(_mask_memo) > _MASK_MEMO_CAPACITY:
            _mask_memo.popitem(last=False)
    return mask, fingerprint


def parse_request(line: bytes | str) -> Request:
    """Parse and validate one request line."""
    try:
        doc = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ProtocolError("request must be a JSON object")

    rid = doc.get("id")
    if not isinstance(rid, str) or not rid:
        raise ProtocolError("request needs a non-empty string 'id'")
    op = doc.get("op")
    if op not in _OPS:
        raise ProtocolError(f"op must be one of {_OPS}, got {op!r}")

    grid = doc.get("grid")
    if isinstance(grid, int):
        grid = [grid]
    if (not isinstance(grid, list) or not grid
            or not all(isinstance(p, int) and p >= 1 for p in grid)):
        raise ProtocolError("grid must be a non-empty list of positive ints")

    if "mask" not in doc:
        raise ProtocolError("request needs a 'mask' payload")
    mask, fingerprint = _decode_mask(doc["mask"])

    options = doc.get("options") or {}
    if not isinstance(options, dict):
        raise ProtocolError("options must be an object")
    redistribute = options.get("redistribute")
    if redistribute not in _REDISTRIBUTE:
        raise ProtocolError(
            f"options.redistribute must be one of {_REDISTRIBUTE}, "
            f"got {redistribute!r}"
        )
    if redistribute is not None and op != "pack":
        raise ProtocolError("options.redistribute applies to op 'pack' only")

    scheme = doc.get("scheme") or ("cms" if op == "pack" else "css")
    if scheme not in ("sss", "css", "cms"):
        raise ProtocolError(f"scheme must be sss/css/cms, got {scheme!r}")
    if op != "pack" and scheme == "cms":
        raise ProtocolError(f"op {op!r} supports schemes sss/css only")

    array = vector = field_array = None
    if op == "pack":
        if "array" not in doc:
            raise ProtocolError("pack needs an 'array' payload")
        if _shape_of(doc["array"]) != tuple(mask.shape):
            raise ProtocolError(
                f"array shape {_shape_of(doc['array'])} != mask shape "
                f"{tuple(mask.shape)}"
            )
        array = decode_array(doc["array"], "array")
        if "vector" in doc and doc["vector"] is not None:
            vector = decode_array(doc["vector"], "vector")
    elif op == "unpack":
        if "vector" not in doc or "field" not in doc:
            raise ProtocolError("unpack needs 'vector' and 'field' payloads")
        vector = decode_array(doc["vector"], "vector")
        field_array = decode_array(doc["field"], "field")
        if field_array.shape != mask.shape:
            raise ProtocolError(
                f"field shape {field_array.shape} != mask shape {mask.shape}"
            )

    return Request(
        id=rid,
        op=op,
        grid=tuple(grid),
        block=doc.get("block"),
        scheme=scheme,
        mask=mask,
        array=array,
        vector=vector,
        field_array=field_array,
        redistribute=redistribute,
        validate=bool(options.get("validate", False)),
        options=options,
        fingerprint=fingerprint,
    )


def encode_response(body: Mapping[str, Any]) -> bytes:
    """One response line, newline-terminated.

    A ``result`` built by :func:`encode_result` goes first in the line,
    its base64 bytes first in the result, joined in verbatim: base64
    needs no JSON escaping.  Only the small envelope passes through
    ``json.dumps``."""
    result = body.get("result")
    data = result.get("data") if isinstance(result, Mapping) else None
    if not isinstance(data, bytes):
        return (json.dumps(body, separators=_SEP) + "\n").encode()
    meta = {k: v for k, v in result.items() if k != "data"}
    rest = {k: v for k, v in body.items() if k != "result"}
    head = json.dumps({"result": meta, **rest}, separators=_SEP)
    tail = head[len(_RESULT_OPEN):]  # meta's members, then the envelope's
    return b"".join((
        b'{"result":{"data":"', data, b'"' if tail[0] == "}" else b'",',
        tail.encode(), b"\n",
    ))


def error_body(rid: str | None, code: str, message: str) -> dict:
    return {
        "id": rid,
        "ok": False,
        "error": {"code": code, "message": message},
    }
