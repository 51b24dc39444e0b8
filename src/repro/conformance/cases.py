"""One conformance configuration point, serializable and self-describing.

A :class:`ConformanceCase` fixes everything that can influence a PACK /
UNPACK execution: the operation, array shape (numpy order, zero extents
allowed), processor grid, per-axis distribution, storage scheme, mask
construction, dtypes, result-vector layout, redistribution pre-pass,
request compression, PRS / many-to-many algorithm choices, machine
profile, padding and surplus vector length.  Input arrays are a pure
function of the case (seeded), so a case value *is* a reproduction:
``case.snippet()`` emits a standalone script, and JSON round-tripping
(:meth:`to_dict` / :meth:`from_dict`) is what the regression corpus
stores.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, replace
from typing import Any

import numpy as np

__all__ = ["ConformanceCase", "OPS", "MASK_KINDS", "parse_dist"]

#: Operations the oracle knows how to run and check.
OPS = ("pack", "pack_vector", "unpack", "roundtrip", "ranking")

#: Mask construction recipes.
MASK_KINDS = ("random", "all_false", "all_true", "stripe", "first")

_DTYPES = {
    "float64": np.float64,
    "float32": np.float32,
    "int64": np.int64,
    "int32": np.int32,
    "int8": np.int8,
    "complex128": np.complex128,
    "bool": np.bool_,
}

_DIST_RE = re.compile(r"^cyclic\((\d+)\)$")


def parse_dist(spec: str):
    """Translate a case dist string into the host API's block argument."""
    if spec == "block":
        return "block"
    if spec == "cyclic":
        return "cyclic"
    m = _DIST_RE.match(spec)
    if m is None:
        raise ValueError(f"bad dist spec {spec!r}")
    return int(m.group(1))


def _dist_width(spec: str, n: int, p: int) -> int:
    """Resolved per-axis block size W (best effort for BLOCK on ragged N)."""
    if spec == "cyclic":
        return 1
    if spec == "block":
        return max(1, -(-n // p))
    return int(_DIST_RE.match(spec).group(1))


@dataclass(frozen=True)
class ConformanceCase:
    """A single point of the PACK/UNPACK configuration space.

    ``shape`` / ``grid`` / ``dist`` are numpy-order (slowest axis first)
    and must share their length (the array rank ``d``).
    """

    op: str = "pack"
    seed: int = 0
    shape: tuple[int, ...] = (16,)
    grid: tuple[int, ...] = (4,)
    dist: tuple[str, ...] = ("block",)
    scheme: str = "cms"
    mask_kind: str = "random"
    density: float = 0.5
    dtype: str = "float64"
    field_dtype: str | None = None
    result_block: int | None = None
    redistribute: str | None = None
    compress_requests: bool = False
    prs: str = "auto"
    m2m_schedule: str = "linear"
    machine: str = "cm5"
    pad: bool = False
    vector_extra: int = 0

    def __post_init__(self) -> None:
        # Accept any sequence for the per-axis fields (JSON gives lists)
        # but store tuples so cases stay hashable and comparable.
        for name in ("shape", "grid", "dist"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if self.op not in OPS:
            raise ValueError(f"unknown op {self.op!r}; expected one of {OPS}")
        if self.mask_kind not in MASK_KINDS:
            raise ValueError(f"unknown mask kind {self.mask_kind!r}")
        if self.dtype not in _DTYPES:
            raise ValueError(f"unknown dtype {self.dtype!r}")
        if self.field_dtype is not None and self.field_dtype not in _DTYPES:
            raise ValueError(f"unknown field dtype {self.field_dtype!r}")
        d = len(self.shape)
        if d < 1 or len(self.grid) != d or len(self.dist) != d:
            raise ValueError(
                f"shape {self.shape}, grid {self.grid} and dist {self.dist} "
                f"must share one rank >= 1"
            )
        for spec in self.dist:
            parse_dist(spec)
        if any(n < 0 for n in self.shape) or any(p < 1 for p in self.grid):
            raise ValueError(f"bad shape {self.shape} / grid {self.grid}")
        if self.vector_extra < 0:
            raise ValueError(f"vector_extra must be >= 0, got {self.vector_extra}")

    # ------------------------------------------------------------ geometry
    @property
    def d(self) -> int:
        return len(self.shape)

    @property
    def nprocs(self) -> int:
        out = 1
        for p in self.grid:
            out *= p
        return out

    def divisible(self) -> bool:
        """Whether every axis meets the paper's ``P*W | N`` assumption."""
        for n, p, spec in zip(self.shape, self.grid, self.dist):
            w = _dist_width(spec, n, p)
            if n == 0 or n % (p * w) != 0:
                return False
        return True

    def normalized(self) -> "ConformanceCase":
        """The same case with ``pad`` forced on when the shape needs it."""
        if self.pad or self.divisible():
            return self
        return replace(self, pad=True)

    def block_arg(self) -> Any:
        """The host API ``block=`` argument for this case's dist tuple."""
        specs = [parse_dist(s) for s in self.dist]
        return specs[0] if self.d == 1 else specs

    # --------------------------------------------------------------- inputs
    def make_mask(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        if self.mask_kind == "all_false":
            return np.zeros(self.shape, dtype=bool)
        if self.mask_kind == "all_true":
            return np.ones(self.shape, dtype=bool)
        if self.mask_kind == "stripe":
            flat = np.arange(int(np.prod(self.shape)), dtype=np.int64)
            return ((flat % 2) == 0).reshape(self.shape)
        if self.mask_kind == "first":
            # True on a leading fraction of the row-major order — the
            # skew that concentrates all traffic on the low ranks.
            total = int(np.prod(self.shape))
            k = int(round(self.density * total))
            flat = np.zeros(total, dtype=bool)
            flat[:k] = True
            return flat.reshape(self.shape)
        return rng.random(self.shape) < self.density

    def make_array(self, which: str = "array") -> np.ndarray:
        """Seeded data array (``which`` decorrelates array/field/vector)."""
        dtype = _DTYPES[
            self.field_dtype if which == "field" and self.field_dtype else self.dtype
        ]
        streams = {"array": 1, "field": 2, "vector": 3, "pad": 4}
        rng = np.random.default_rng((self.seed << 3) + streams[which])
        if which in ("array", "field"):
            size, shape = int(np.prod(self.shape)), self.shape
        else:  # rank-1: UNPACK's input vector / PACK's VECTOR argument
            trues = int(np.count_nonzero(self.make_mask()))
            size = trues + self.vector_extra
            shape = (size,)
        return self._fill(rng, size, dtype).reshape(shape)

    @staticmethod
    def _fill(rng: np.random.Generator, size: int, dtype) -> np.ndarray:
        if np.issubdtype(dtype, np.complexfloating):
            return (rng.random(size) + 1j * rng.random(size)).astype(dtype)
        if np.issubdtype(dtype, np.floating):
            return (rng.random(size) * 100 - 50).astype(dtype)
        if dtype is np.bool_ or np.issubdtype(dtype, np.bool_):
            return rng.random(size) < 0.5
        info = np.iinfo(dtype)
        lo, hi = max(info.min, -100), min(info.max, 100)
        return rng.integers(lo, hi + 1, size).astype(dtype)

    # -------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        out = asdict(self)
        out["shape"] = list(self.shape)
        out["grid"] = list(self.grid)
        out["dist"] = list(self.dist)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ConformanceCase":
        data = dict(data)
        for key in ("shape", "grid", "dist"):
            if key in data:
                data[key] = tuple(data[key])
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416 - names
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown case fields: {sorted(extra)}")
        return cls(**data)

    # ------------------------------------------------------------ reporting
    def describe(self) -> str:
        bits = [
            f"op={self.op}", f"seed={self.seed}",
            f"shape={'x'.join(map(str, self.shape))}",
            f"grid={'x'.join(map(str, self.grid))}",
            f"dist={','.join(self.dist)}", f"scheme={self.scheme}",
            f"mask={self.mask_kind}",
        ]
        if self.mask_kind in ("random", "first"):
            bits.append(f"density={self.density:g}")
        bits.append(f"dtype={self.dtype}")
        if self.field_dtype:
            bits.append(f"field_dtype={self.field_dtype}")
        if self.result_block is not None:
            bits.append(f"result_block={self.result_block}")
        if self.redistribute:
            bits.append(f"redistribute={self.redistribute}")
        if self.compress_requests:
            bits.append("compress")
        if self.prs != "auto":
            bits.append(f"prs={self.prs}")
        if self.m2m_schedule != "linear":
            bits.append(f"m2m={self.m2m_schedule}")
        if self.machine != "cm5":
            bits.append(f"machine={self.machine}")
        if self.pad:
            bits.append("pad")
        if self.vector_extra:
            bits.append(f"extra={self.vector_extra}")
        return " ".join(bits)

    def snippet(self) -> str:
        """A standalone script reproducing this case outside the fuzzer."""
        return (
            "# repro conform case — run with PYTHONPATH=src python snippet.py\n"
            "from repro.conformance import ConformanceCase, run_case\n"
            f"case = ConformanceCase.from_dict({self.to_dict()!r})\n"
            "outcome = run_case(case)\n"
            "print(outcome.kind, outcome.detail)\n"
            "assert outcome.ok, case.describe()\n"
        )
