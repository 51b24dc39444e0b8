"""Scheme definitions and run configuration.

The paper develops three schemes for PACK (two of which also apply to
UNPACK), trading local memory traffic against message volume:

``Scheme.SSS`` — *simple storage scheme* (Section 6.1):
    one local scan; per selected element, ``d+3`` bookkeeping items are
    stored during the initial ranking scan (local index per dimension,
    tile number, in-slice rank, destination) and read back in the final
    step.  Messages carry explicit ``(global rank, datum)`` pairs.

``Scheme.CSS`` — *compact storage scheme* (Section 6.1):
    nothing is stored per element; a per-slice counter array ``PS_c``
    (copy of ``PS_0``) plus the final base-rank array ``PS_f`` let the
    final step re-derive every rank arithmetically, at the cost of a
    second local scan over the non-empty slices during message
    composition.  Messages are the same pairs as SSS.

``Scheme.CMS`` — *compact message scheme* (Section 6.2):
    CSS storage, plus run-length message encoding: because the ranks of
    the ``n`` selected elements in one slice are consecutive
    (``r0 .. r0+n-1``), each message is a list of segments
    ``(base-rank, count, datum...)`` — ``E + 2*Gs`` words instead of
    ``2*E``.

UNPACK supports SSS and CSS (Section 7 measures exactly those two).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["Scheme", "PackConfig"]


class Scheme(enum.Enum):
    """Storage / message-composition scheme (Sections 6.1-6.2)."""

    SSS = "sss"
    CSS = "css"
    CMS = "cms"

    @classmethod
    def parse(cls, value) -> "Scheme":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ValueError(
                f"unknown scheme {value!r}; expected one of "
                f"{[s.value for s in cls]}"
            ) from None

    @property
    def stores_records(self) -> bool:
        """Whether per-element bookkeeping is stored during the initial scan."""
        return self is Scheme.SSS

    @property
    def uses_segments(self) -> bool:
        """Whether messages use the compact segment encoding."""
        return self is Scheme.CMS


@dataclass(frozen=True)
class PackConfig:
    """Tunable knobs of one PACK/UNPACK execution.

    Parameters
    ----------
    scheme:
        SSS / CSS / CMS (see :class:`Scheme`).
    prs:
        prefix-reduction-sum algorithm: ``"auto"`` (paper heuristic),
        ``"direct"``, ``"split"`` or ``"ctrl"``.
    m2m_schedule:
        many-to-many schedule: ``"linear"`` (paper) or ``"naive"``.
    early_exit_scan:
        CSS/CMS second-scan policy: stop scanning a slice once all its
        counted elements are found (the paper's method 1, measured
        slightly better) vs always scan the whole slice (method 2).
    charge_self_copy:
        whether a self-addressed message costs a local memcpy (the paper's
        implementation skipped even the copy; default off).
    result_block:
        block size of the result/input vector's distribution, or ``None``
        for the paper's BLOCK distribution (``ceil(Size/P)``).
    compress_requests:
        UNPACK extension (not in the paper, but the natural dual of the
        compact message scheme): send rank *requests* as run-length
        segments ``(base-rank, count)`` instead of explicit rank lists —
        ``2*Gs`` words instead of ``E``.  Exploits the same slice
        property CMS uses for PACK.  CSS only.
    validate:
        host-level API only: check the parallel result against the serial
        numpy oracle and raise on mismatch.
    """

    scheme: Scheme = Scheme.CMS
    prs: str = "auto"
    m2m_schedule: str = "linear"
    early_exit_scan: bool = True
    charge_self_copy: bool = False
    result_block: int | None = None
    compress_requests: bool = False
    validate: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "scheme", Scheme.parse(self.scheme))
        if self.prs not in ("auto", "direct", "split", "ctrl"):
            raise ValueError(f"unknown PRS algorithm {self.prs!r}")
        if self.m2m_schedule not in ("linear", "naive", "direct"):
            raise ValueError(f"unknown m2m schedule {self.m2m_schedule!r}")
        if self.result_block is not None and self.result_block < 1:
            raise ValueError(f"result_block must be >= 1, got {self.result_block}")

