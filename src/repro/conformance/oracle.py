"""Run one conformance case and judge it against the serial semantics.

The parallel result must match the NumPy reference *exactly* (values and
shape; dtypes must agree under the library's promotion rule).  On top of
the reference comparison, structural invariants are checked — they catch
bugs even in configurations where the reference itself might be suspect:

* **rank permutation validity** (``ranking``): the ranks of the mask-true
  elements are exactly ``0 .. Size-1``, each once, ascending in row-major
  element order, and ``-1`` elsewhere;
* **conservation** (``pack``): the packed prefix equals the mask-selected
  elements in row-major order — nothing lost, duplicated or reordered;
* **field passthrough** (``unpack``): mask-false positions carry the field
  values untouched;
* **round-trip identity** (``roundtrip``): ``UNPACK(PACK(A, M), M, A)``
  reproduces ``A`` exactly, for any mask (full masks make it the
  idempotence law ``unpack . pack = id``).

All exceptions escaping the library are failures (kind ``"error"``) — the
generator only emits legal configurations, so nothing should raise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..serial.reference import mask_ranks, pack_reference, unpack_reference
from .cases import ConformanceCase

__all__ = ["CaseOutcome", "run_case"]


@dataclass(frozen=True)
class CaseOutcome:
    """Verdict for one case: ``ok``, or why not (one line, human-sized)."""

    ok: bool
    kind: str  # "ok" | "mismatch" | "invariant" | "error"
    detail: str = ""

    def __str__(self) -> str:
        return self.kind if self.ok else f"{self.kind}: {self.detail}"


_OK = CaseOutcome(ok=True, kind="ok")


def _spec(case: ConformanceCase):
    from ..machine import CM5, ETHERNET_CLUSTER, IDEAL

    return {"cm5": CM5, "cluster": ETHERNET_CLUSTER, "ideal": IDEAL}[case.machine]


def _mismatch(what: str, got, want) -> CaseOutcome:
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return CaseOutcome(
            False, "mismatch", f"{what}: shape {got.shape} != {want.shape}"
        )
    bad = np.flatnonzero(~np.isclose(got.ravel(), want.ravel(), rtol=0, atol=0,
                                     equal_nan=True))
    where = f" first at flat index {bad[0]}" if bad.size else ""
    return CaseOutcome(
        False, "mismatch",
        f"{what}: {bad.size}/{got.size} elements differ{where}",
    )


def _equal(got, want) -> bool:
    got = np.asarray(got)
    want = np.asarray(want)
    return got.shape == want.shape and bool(np.array_equal(got, want))


def run_case(
    case: ConformanceCase, backend: str = "sim", plan_cache=None
) -> CaseOutcome:
    """Execute the case's operation and check every applicable property.

    ``backend`` selects the execution backend (see :mod:`repro.runtime`);
    the same oracle judges every backend.

    ``plan_cache`` is forwarded to every library call (see
    :mod:`repro.core.plan_cache`): replaying a corpus with a shared cache
    checks that plan replay is bit-identical to fresh compilation — the
    oracle's comparisons are exact, so a stale or mis-keyed plan fails the
    same way any other bug does.
    """
    case = case.normalized()
    try:
        return _run(case, backend, plan_cache)
    except Exception as exc:  # noqa: BLE001 - every escape is a failure
        return CaseOutcome(False, "error", f"{type(exc).__name__}: {exc}")


def cross_check_case(
    case: ConformanceCase, backends=("sim", "mp", "supervised"),
    plan_cache=None,
) -> CaseOutcome:
    """Differential backend mode: the case must pass the oracle on every
    backend (by default the simulator, a one-op ``mp`` gang and the warm
    ``supervised`` gang).

    The oracle's comparison is bit-exact against the one serial reference,
    so two backends that both pass are transitively bit-identical to each
    other — no separate pairwise comparison is needed.  The first failing
    backend is reported (prefixed with its name).
    """
    for backend in backends:
        outcome = run_case(case, backend=backend, plan_cache=plan_cache)
        if not outcome.ok:
            return CaseOutcome(
                False, outcome.kind, f"[backend={backend}] {outcome.detail}"
            )
    return _OK


def _run(
    case: ConformanceCase, backend: str = "sim", plan_cache=None
) -> CaseOutcome:
    from ..core.api import pack, ranking, unpack

    mask = case.make_mask()
    spec = _spec(case)
    common = dict(
        grid=case.grid, block=case.block_arg(), spec=spec,
        prs=case.prs, m2m_schedule=case.m2m_schedule,
        result_block=case.result_block, pad=case.pad, validate=False,
        backend=backend, plan_cache=plan_cache,
    )
    size = int(np.count_nonzero(mask))

    if case.op == "ranking":
        result = ranking(
            mask, grid=case.grid, block=case.block_arg(), spec=spec,
            prs=case.prs, scheme="css" if case.scheme == "cms" else case.scheme,
            pad=case.pad, validate=False, backend=backend,
            plan_cache=plan_cache,
        )
        expected = mask_ranks(mask)
        if not _equal(result.ranks, expected):
            return _mismatch("ranks", result.ranks, expected)
        if result.size != size:
            return CaseOutcome(False, "mismatch",
                               f"Size {result.size} != {size}")
        got = np.sort(result.ranks[mask]) if size else np.empty(0, np.int64)
        if not np.array_equal(got, np.arange(size)):
            return CaseOutcome(
                False, "invariant",
                "mask-true ranks are not the permutation 0..Size-1",
            )
        if np.any(result.ranks[~mask] != -1):
            return CaseOutcome(False, "invariant",
                               "mask-false positions must rank -1")
        return _OK

    array = case.make_array("array")

    if case.op in ("pack", "pack_vector"):
        vector_arg = case.make_array("pad") if case.op == "pack_vector" else None
        result = pack(
            array, mask, scheme=case.scheme,
            redistribute=case.redistribute, vector=vector_arg, **common,
        )
        expected = pack_reference(array, mask, vector_arg)
        if not _equal(result.vector, expected):
            return _mismatch("pack", result.vector, expected)
        if result.size != size:
            return CaseOutcome(False, "mismatch",
                               f"Size {result.size} != {size}")
        if not _equal(result.vector[:size], array[mask]):
            return CaseOutcome(
                False, "invariant",
                "packed prefix does not conserve the selected elements",
            )
        if result.vector.dtype != expected.dtype:
            return CaseOutcome(
                False, "invariant",
                f"pack dtype {result.vector.dtype} != {expected.dtype}",
            )
        return _OK

    if case.op == "unpack":
        field = case.make_array("field")
        vector = case.make_array("vector")
        unpack_scheme = "css" if case.scheme == "cms" else case.scheme
        result = unpack(
            vector, mask, field, scheme=unpack_scheme,
            compress_requests=case.compress_requests, **common,
        )
        expected = unpack_reference(vector, mask, field)
        if not _equal(result.array, expected):
            return _mismatch("unpack", result.array, expected)
        if result.array.dtype != expected.dtype:
            return CaseOutcome(
                False, "invariant",
                f"unpack dtype {result.array.dtype} != {expected.dtype}",
            )
        if not _equal(result.array[~mask],
                      expected[~mask]):
            return CaseOutcome(False, "invariant",
                               "field passthrough violated on mask-false")
        if not _equal(result.array[mask], vector[:size].astype(
                expected.dtype, copy=False)):
            return CaseOutcome(False, "invariant",
                               "vector placement violated on mask-true")
        return _OK

    # roundtrip: UNPACK(PACK(A, M), M, A) == A for any mask.
    packed = pack(
        array, mask, scheme=case.scheme, redistribute=case.redistribute,
        **common,
    )
    unpack_scheme = "css" if case.scheme == "cms" else case.scheme
    restored = unpack(
        packed.vector, mask, array, scheme=unpack_scheme,
        compress_requests=case.compress_requests, **common,
    )
    if not _equal(restored.array, array):
        return _mismatch("roundtrip", restored.array, array)
    return _OK
