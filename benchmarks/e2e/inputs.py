"""Seeded inputs: library call arguments and service request streams.

Everything is a pure function of the workload and ``--seed``; the
program under test receives only the generated inputs.  Service
requests are serialized to bytes before any timed phase starts: a
request is a tuple of byte segments (id, op header, array blobs) that
shares the large blobs between requests, so a stream of thousands of
~200 KB requests costs memory for the distinct blobs only.
"""

from __future__ import annotations

import base64
import hashlib
import json
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .workloads import (
    DATA_ARRAYS, LIB_KINDS, LIB_MASKS_PER_KIND, PROCS, LibKind, ServeWorkload,
)

# Stream ids: every random draw is seeded by (seed, stream, ...), so
# adding a draw to one stream never shifts another.
_MASK, _ARRAY, _FIELD, _FRESH, _CHOICE, _ARRIVAL = range(6)
# Per-request choices of a phase, one generator each, so the first k
# draws do not depend on how many are drawn.
_OP, _IS_FRESH, _HOT, _ARR = range(4)
#: Service phases and the id prefix of their requests.
PHASES = {"probe": "p", "combo": "k", "warm": "w", "open": "o",
          "capacity": "c"}


# ---------------------------------------------------------------- encoding
def blob(a: np.ndarray) -> dict:
    """The protocol's array blob: ``{"dtype", "shape", "data": base64}``."""
    a = np.ascontiguousarray(a)
    return {
        "dtype": str(a.dtype),
        "shape": list(a.shape),
        "data": base64.b64encode(a.tobytes()).decode("ascii"),
    }


def blob_digest(b: dict) -> str:
    """Digest of an array blob as it appears in a response."""
    h = hashlib.sha1(f"{b['dtype']}|{list(b['shape'])}|".encode())
    h.update(b["data"].encode("ascii"))
    return h.hexdigest()


def array_digest(a: np.ndarray) -> str:
    """Digest of an array, equal to :func:`blob_digest` of its blob."""
    return blob_digest(blob(a))


def result_digest(a: np.ndarray) -> str:
    """Cheaper digest for in-process library results (no base64)."""
    a = np.ascontiguousarray(a)
    h = hashlib.sha1(f"{a.dtype}|{list(a.shape)}|".encode())
    h.update(a.data)
    return h.hexdigest()


# ----------------------------------------------------------------- library
@dataclass
class LibInput:
    """Arguments of one library call."""

    index: int
    kind: LibKind
    mask: np.ndarray
    array: np.ndarray | None = None  # pack
    vector: np.ndarray | None = None  # unpack
    field: np.ndarray | None = None  # unpack


class LibInputs:
    """The library workloads' inputs: one mask per input, round-robin over
    :data:`LIB_KINDS`.  Data arrays are shared per kind (a call's cost
    depends on its mask, not its values), which keeps the working set to
    the masks plus three arrays."""

    def __init__(self, seed: int):
        self.seed = seed
        self._data: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(LIB_KINDS) * LIB_MASKS_PER_KIND

    def _shared(self, kind_idx: int) -> np.ndarray:
        kind = LIB_KINDS[kind_idx]
        if kind.name not in self._data:
            rng = np.random.default_rng((self.seed, _ARRAY, kind_idx))
            self._data[kind.name] = rng.standard_normal(kind.shape)
        return self._data[kind.name]

    def get(self, i: int) -> LibInput:
        if not 0 <= i < len(self):
            raise IndexError(i)
        k = i % len(LIB_KINDS)
        kind = LIB_KINDS[k]
        rng = np.random.default_rng((self.seed, _MASK, i))
        mask = rng.random(kind.shape) < kind.density
        data = self._shared(k)
        if kind.op == "pack":
            return LibInput(i, kind, mask, array=data)
        if "field" not in self._data:
            rng_f = np.random.default_rng((self.seed, _FIELD))
            self._data["field"] = rng_f.standard_normal(kind.shape)
        vector = data.ravel()[: int(np.count_nonzero(mask))]
        return LibInput(i, kind, mask, vector=vector, field=self._data["field"])


def lib_reference(inp: LibInput) -> np.ndarray:
    """The serial oracle's answer for one library input."""
    from repro.serial.reference import pack_reference, unpack_reference

    if inp.kind.op == "pack":
        return pack_reference(inp.array, inp.mask)
    return unpack_reference(inp.vector, inp.mask, inp.field)


# ----------------------------------------------------------------- service
@dataclass
class Request:
    """One pre-serialized service request."""

    rid: str
    parts: tuple[bytes, ...]  # write with writer.writelines(parts)
    key: tuple  # (op, mask ref, array index): what the oracle needs
    t_due: float = 0.0  # seconds after the phase start (open loop)


def _enc(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode()


class ServiceStream:
    """Deterministic request stream of one service workload and seed."""

    def __init__(self, wl: ServeWorkload, seed: int):
        self.wl = wl
        self.seed = seed
        self.ops = [op for op, _ in wl.op_weights]
        self.weights = np.array([w for _, w in wl.op_weights], dtype=float)
        self.weights /= self.weights.sum()
        self.hot = [
            np.random.default_rng((seed, _MASK, m)).random(wl.n) < wl.density
            for m in range(wl.hot_masks)
        ]
        self.arrays = [
            np.random.default_rng((seed, _ARRAY, a)).standard_normal(wl.n)
            for a in range(DATA_ARRAYS)
        ]
        self.field = np.random.default_rng((seed, _FIELD)).standard_normal(wl.n)
        self._fresh: dict[tuple, np.ndarray] = {}
        self._blobs: dict[tuple, bytes] = {}
        self._expected: dict[tuple, str] = {}
        self._heads = {
            op: _enc({
                "op": op, "grid": [PROCS], "block": None,
                "scheme": "cms" if op == "pack" else "css",
                "options": {"validate": False},
            })[1:-1] for op in self.ops
        }

    # -- masks and blobs -------------------------------------------------
    def mask(self, ref: tuple) -> np.ndarray:
        if ref[0] == "h":
            return self.hot[ref[1]]
        return self._fresh[ref]

    def _blob(self, what: str, *ref) -> bytes:
        key = (what,) + ref
        b = self._blobs.get(key)
        if b is None:
            if what == "mask":
                a = self.mask(ref[0])
            elif what == "array":
                a = self.arrays[ref[0]]
            elif what == "field":
                a = self.field
            else:  # unpack vector: one data array cut to the mask's trues
                mref, ai = ref
                a = self.arrays[ai][: int(np.count_nonzero(self.mask(mref)))]
            b = self._blobs[key] = _enc(blob(a))
        return b

    def _build(self, rid: str, op: str, mref: tuple, ai: int) -> Request:
        parts = [b'{"id":"', rid.encode(), b'",', self._heads[op],
                 b',"mask":', self._blob("mask", mref)]
        if op == "pack":
            parts += [b',"array":', self._blob("array", ai)]
        elif op == "unpack":
            parts += [b',"vector":', self._blob("vector", mref, ai),
                      b',"field":', self._blob("field")]
        parts.append(b"}\n")
        return Request(rid, tuple(parts), (op, mref, ai))

    # -- phases ----------------------------------------------------------
    def warm_combos(self) -> list[Request]:
        """Every (hot mask, op) pair once, so the timed phases start with
        the hot plans compiled."""
        return [
            self._build(f"{PHASES['combo']}{i}", op, ("h", m), 0)
            for i, (m, op) in enumerate(
                (m, op) for m in range(self.wl.hot_masks) for op in self.ops
            )
        ]

    def phase(self, name: str, count: int, first: int = 0) -> list[Request]:
        """Requests ``first .. first+count-1`` of one phase's stream."""
        code = list(PHASES).index(name)
        prefix = PHASES[name]

        def rng(draw):
            return np.random.default_rng((self.seed, _CHOICE, code, draw))

        total = first + count
        ops = rng(_OP).choice(len(self.ops), size=total, p=self.weights)
        fresh = rng(_IS_FRESH).random(total) < self.wl.fresh_fraction
        hot = rng(_HOT).integers(self.wl.hot_masks, size=total)
        arr = rng(_ARR).integers(DATA_ARRAYS, size=total)
        out = []
        for j in range(first, total):
            if fresh[j]:
                mref = ("f", code, j)
                if mref not in self._fresh:
                    frng = np.random.default_rng((self.seed, _FRESH, code, j))
                    self._fresh[mref] = frng.random(self.wl.n) < self.wl.density
            else:
                mref = ("h", int(hot[j]))
            out.append(self._build(f"{prefix}{j}", self.ops[ops[j]], mref,
                                   int(arr[j])))
        return out

    def endless(self, name: str, chunk: int) -> Iterator[Request]:
        """One phase's whole stream, built ``chunk`` requests at a time as
        it is consumed, so a closed loop of any speed never runs dry."""
        first = 0
        while True:
            yield from self.phase(name, chunk, first)
            first += chunk

    def open_loop(self, seconds: float, name: str = "open") -> list[Request]:
        """An open-loop phase: Poisson arrivals at the workload's rate,
        each request stamped with its due time."""
        code = list(PHASES).index(name)
        rng = np.random.default_rng((self.seed, _ARRIVAL, code))
        n_max = int(self.wl.rate * seconds * 1.5) + 64
        due = np.cumsum(rng.exponential(1.0 / self.wl.rate, size=n_max))
        count = int(np.searchsorted(due, seconds))
        reqs = self.phase(name, count)
        for r, t in zip(reqs, due[:count]):
            r.t_due = float(t)
        return reqs

    # -- oracle ----------------------------------------------------------
    def expected(self, key: tuple) -> str:
        """Digest of the serial oracle's result for one request."""
        d = self._expected.get(key)
        if d is None:
            from repro.serial.reference import (
                mask_ranks, pack_reference, unpack_reference,
            )

            op, mref, ai = key
            mask = self.mask(mref)
            if op == "pack":
                out = pack_reference(self.arrays[ai], mask)
            elif op == "unpack":
                vec = self.arrays[ai][: int(np.count_nonzero(mask))]
                out = unpack_reference(vec, mask, self.field)
            else:
                out = mask_ranks(mask)
            d = self._expected[key] = array_digest(out)
        return d
