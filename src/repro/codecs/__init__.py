"""Wire codecs for the runtime transports.

:mod:`repro.codecs.wire` turns the payload objects PACK/UNPACK actually
puts on the network — numpy arrays, :class:`~repro.core.messages.PairMessage`,
:class:`~repro.core.messages.SegmentMessage` — into flat byte streams a
shared-memory ring buffer can carry without pickling, including the
paper's CMS run-length segment encoding *on the wire* (Section 6: ship
``(base-rank, count, data...)`` runs instead of ``(rank, datum)`` pairs).
"""

from .wire import (
    decode_payload,
    encode_payload,
    pair_runs,
    wire_bytes_pair_cms,
    wire_bytes_pair_sss,
)

__all__ = [
    "decode_payload",
    "encode_payload",
    "pair_runs",
    "wire_bytes_pair_cms",
    "wire_bytes_pair_sss",
]
