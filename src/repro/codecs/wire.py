"""Flat wire encodings for runtime transport payloads.

The multiprocessing transport originally pickled every message.  For the
payloads the redistribution stage actually sends — numpy arrays and the
two paper message encodings (:class:`~repro.core.messages.PairMessage`,
:class:`~repro.core.messages.SegmentMessage`) — pickling is pure
overhead: the objects are already flat buffers plus a few integers of
geometry.  This module frames them as ``meta + raw bytes`` so the
shared-memory ring transport (:mod:`repro.runtime.shm_ring`) can move
them with plain memoryview copies, and falls back to pickle for
anything else (collective-protocol tuples, count dicts, scalars).

CMS on the wire
---------------
The paper's CMS scheme (Section 6) exists to shrink message volume: a
maximal run of consecutive destination ranks ships as
``(base-rank, count, data...)`` — ``E + 2*Gs`` words — instead of the
SSS-style ``(rank, datum)`` pair list — ``2*E`` words.  The same
trade-off exists on a real wire: a :class:`PairMessage` whose ranks form
few long runs is cheaper to ship as segments.  ``encode_payload``
re-derives the runs (cheap: one vectorized diff over indices the sender
already computed) and ships whichever encoding is smaller, keeping pairs
on a tie — the β₂ rule of ``BENCH_runtime.json``'s ``codec_crossover``
section, applied per message.  The decoder always reconstructs the exact original object
(:func:`~repro.core.messages.expand_segments` inverts the run-length
form bit-for-bit), so results are identical whichever side of the
crossover a message lands on.

Wire format
-----------
One byte stream per payload; the transport carries a separate
``wire_kind`` byte.  Arrays are framed as::

    u8 len(dtype.str) | dtype.str ascii | u8 ndim | i64 shape... | raw bytes

and composite kinds are a fixed sequence of framed arrays.  Decoding
builds numpy views over the received buffer — no copy beyond the
transport's own copy out of shared memory.  The views inherit the
buffer's writability: the ring transport hands a fresh ``bytearray``
per message, so received payloads are mutable, exactly like the queue
transport's unpickled copies and the simulator's deliveries.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any

import numpy as np

__all__ = [
    "W_PICKLE",
    "W_NONE",
    "W_ND",
    "W_PAIR_SSS",
    "W_PAIR_CMS",
    "W_SEG",
    "decode_payload",
    "encode_payload",
    "pair_runs",
    "wire_bytes_pair_cms",
    "wire_bytes_pair_sss",
]

#: Wire kinds (one byte on the transport record header).
W_PICKLE = 0    # pickled bytes: any Python object
W_NONE = 1      # payload None, zero bytes
W_ND = 2        # a single ndarray
W_PAIR_SSS = 3  # PairMessage as (ranks, values) arrays — the SSS pair form
W_PAIR_CMS = 4  # PairMessage as (bases, counts, values) — CMS segment form
W_SEG = 5       # SegmentMessage as (bases, counts, values)

_NDIM = struct.Struct("<B")
_DIM = struct.Struct("<q")


# ------------------------------------------------------------ array framing
def _frame_array(arr: np.ndarray, parts: list) -> int:
    """Append one array's meta + raw bytes to ``parts``; return byte count."""
    shape = arr.shape  # before ascontiguousarray, which promotes 0-d to 1-d
    arr = np.ascontiguousarray(arr)
    ds = arr.dtype.str.encode("ascii")
    meta = bytes([len(ds)]) + ds + _NDIM.pack(len(shape)) + b"".join(
        _DIM.pack(s) for s in shape
    )
    parts.append(meta)
    mv = memoryview(arr).cast("B")
    parts.append(mv)
    return len(meta) + len(mv)


def _unframe_array(buf, offset: int) -> tuple[np.ndarray, int]:
    """Read one framed array as a view over ``buf``.

    The view's writability follows the buffer's: writable for a
    ``bytearray`` (what the ring transport delivers), read-only for
    immutable ``bytes``.
    """
    dlen = buf[offset]
    offset += 1
    dtype = np.dtype(bytes(buf[offset : offset + dlen]).decode("ascii"))
    offset += dlen
    ndim = buf[offset]
    offset += 1
    shape = tuple(
        _DIM.unpack_from(buf, offset + 8 * i)[0] for i in range(ndim)
    )
    offset += 8 * ndim
    count = int(np.prod(shape)) if ndim else 1
    nbytes = count * dtype.itemsize
    arr = np.frombuffer(buf, dtype=dtype, count=count, offset=offset)
    return arr.reshape(shape), offset + nbytes


# -------------------------------------------------------------- CMS geometry
def pair_runs(ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximal runs of consecutive ranks: ``(bases, counts)``.

    The inverse of :func:`repro.core.messages.expand_segments` — one
    vectorized diff, exploiting the same consecutive-local-indices
    invariant the PR 3 placement fast paths use.
    """
    n = ranks.size
    if n == 0:
        return ranks[:0], np.empty(0, dtype=np.int64)
    breaks = np.flatnonzero(np.asarray(ranks[1:]) != np.asarray(ranks[:-1]) + 1) + 1
    starts = np.concatenate(([0], breaks))
    counts = np.diff(np.append(starts, n))
    return ranks[starts], counts


def wire_bytes_pair_sss(count: int, itemsize: int = 8) -> int:
    """Wire payload bytes of a pair-encoded message (meta excluded)."""
    return count * (8 + itemsize)


def wire_bytes_pair_cms(count: int, segments: int, itemsize: int = 8) -> int:
    """Wire payload bytes of a segment-encoded message (meta excluded).

    The byte-level β₂ crossover: CMS wins when
    ``16 * segments < 8 * count``, i.e. mean run length above 2 —
    exactly the paper's word-level ``E + 2*Gs < 2*E`` condition.
    """
    return count * itemsize + segments * 16


# ------------------------------------------------------------------- encode
def encode_payload(payload: Any) -> tuple[int, list, int]:
    """Encode ``payload`` for the wire.

    Returns ``(wire_kind, parts, nbytes)`` where ``parts`` is a list of
    buffer-like objects (bytes / memoryviews) whose concatenation is the
    wire payload and ``nbytes`` is its total length.  Array payload
    parts are memoryviews over the caller's arrays — the transport must
    finish copying them before returning control to the program (sends
    in this library never mutate a payload after posting, matching the
    simulator's contract).
    """
    if payload is None:
        return W_NONE, [], 0
    from ..core.messages import PairMessage, SegmentMessage

    parts: list = []
    if isinstance(payload, np.ndarray):
        n = _frame_array(payload, parts)
        return W_ND, parts, n
    if isinstance(payload, PairMessage):
        bases, counts = pair_runs(payload.ranks)
        itemsize = payload.values.dtype.itemsize
        if (wire_bytes_pair_cms(payload.count, int(bases.size), itemsize)
                < wire_bytes_pair_sss(payload.count, itemsize)):
            n = _frame_array(bases, parts)
            n += _frame_array(counts, parts)
            n += _frame_array(payload.values, parts)
            return W_PAIR_CMS, parts, n
        n = _frame_array(payload.ranks, parts)
        n += _frame_array(payload.values, parts)
        return W_PAIR_SSS, parts, n
    if isinstance(payload, SegmentMessage):
        # Already the paper's CMS form; frame it as-is.
        n = _frame_array(payload.bases, parts)
        n += _frame_array(payload.counts, parts)
        n += _frame_array(payload.values, parts)
        return W_SEG, parts, n
    data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
    return W_PICKLE, [data], len(data)


# ------------------------------------------------------------------- decode
def decode_payload(wire_kind: int, buf) -> Any:
    """Decode one wire payload; the exact inverse of :func:`encode_payload`.

    ``buf`` is the received byte buffer.  Array results are views over
    it whose writability follows the buffer's — transports must pass a
    mutable buffer (``bytearray``) so programs may mutate received
    payloads, the receive contract every other backend provides.
    """
    if wire_kind == W_NONE:
        return None
    if wire_kind == W_PICKLE:
        return pickle.loads(buf)
    if wire_kind == W_ND:
        arr, _ = _unframe_array(buf, 0)
        return arr
    from ..core.messages import PairMessage, SegmentMessage, expand_segments

    if wire_kind == W_PAIR_SSS:
        ranks, off = _unframe_array(buf, 0)
        values, _ = _unframe_array(buf, off)
        return PairMessage(ranks=ranks, values=values)
    if wire_kind == W_PAIR_CMS:
        bases, off = _unframe_array(buf, 0)
        counts, off = _unframe_array(buf, off)
        values, _ = _unframe_array(buf, off)
        ranks = expand_segments(bases, counts).astype(bases.dtype, copy=False)
        return PairMessage(ranks=ranks, values=values)
    if wire_kind == W_SEG:
        bases, off = _unframe_array(buf, 0)
        counts, off = _unframe_array(buf, off)
        values, _ = _unframe_array(buf, off)
        return SegmentMessage(bases=bases, counts=counts, values=values)
    raise ValueError(f"unknown wire kind {wire_kind!r}")
