"""Wire codec: exact roundtrips and the CMS byte crossover.

Every payload kind the transport ships must decode bit-identically from
its wire bytes, and the encoder must pick CMS exactly when the
paper's ``E + 2*Gs < 2*E`` condition holds at the byte level
(``count*itemsize + 16*segments < count*(8+itemsize)``).
"""

import numpy as np
import pytest

from repro.codecs import (
    decode_payload,
    encode_payload,
    pair_runs,
    wire_bytes_pair_cms,
    wire_bytes_pair_sss,
)
from repro.codecs.wire import W_ND, W_NONE, W_PAIR_CMS, W_PAIR_SSS, W_PICKLE, W_SEG
from repro.core.messages import PairMessage, SegmentMessage


def roundtrip(obj):
    kind, parts, nbytes = encode_payload(obj)
    buf = b"".join(bytes(p) for p in parts)
    assert len(buf) == nbytes
    return kind, decode_payload(kind, buf)


class TestRoundtrips:
    def test_none(self):
        kind, back = roundtrip(None)
        assert kind == W_NONE and back is None

    def test_pickle_fallback(self):
        kind, back = roundtrip({"counts": {3: 7}, "stamp": ("m2m", 901)})
        assert kind == W_PICKLE
        assert back == {"counts": {3: 7}, "stamp": ("m2m", 901)}

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.int32])
    def test_ndarray_dtypes(self, dtype):
        a = np.arange(12).astype(dtype).reshape(3, 4)
        kind, back = roundtrip(a)
        assert kind == W_ND
        np.testing.assert_array_equal(back, a)
        assert back.dtype == a.dtype and back.shape == a.shape

    def test_zero_d_array(self):
        kind, back = roundtrip(np.array(7.25))
        assert kind == W_ND and back.shape == () and float(back) == 7.25

    def test_empty_array(self):
        kind, back = roundtrip(np.empty(0, dtype=np.float64))
        assert kind == W_ND and back.size == 0 and back.dtype == np.float64

    def test_noncontiguous_array(self):
        a = np.arange(24, dtype=np.float64).reshape(4, 6)[:, ::2]
        kind, back = roundtrip(a)
        assert kind == W_ND
        np.testing.assert_array_equal(back, a)

    def test_segment_message(self):
        sm = SegmentMessage(bases=np.array([0, 5], dtype=np.int64),
                            counts=np.array([3, 2], dtype=np.int64),
                            values=np.arange(5.0))
        kind, back = roundtrip(sm)
        assert kind == W_SEG
        np.testing.assert_array_equal(back.bases, sm.bases)
        np.testing.assert_array_equal(back.counts, sm.counts)
        np.testing.assert_array_equal(back.values, sm.values)

    def test_empty_pair_message(self):
        pm = PairMessage(ranks=np.empty(0, dtype=np.int64),
                         values=np.empty(0))
        _, back = roundtrip(pm)
        assert back.count == 0

    def test_decoded_view_writability_follows_buffer(self):
        # Decoded arrays are views over the receive buffer: immutable
        # bytes give a read-only view, while the mutable bytearray the
        # ring transport delivers gives a writable one — programs may
        # mutate received payloads, like on every other transport.
        kind, parts, nbytes = encode_payload(np.arange(4.0))
        buf = b"".join(bytes(p) for p in parts)
        assert not decode_payload(kind, buf).flags.writeable
        back = decode_payload(kind, bytearray(buf))
        assert back.flags.writeable
        back[0] = 9.0  # must not raise
        assert float(back[0]) == 9.0


class TestPairEncoding:
    def test_consecutive_ranks_pick_cms(self):
        pm = PairMessage(ranks=np.arange(100, dtype=np.int64),
                         values=np.arange(100, dtype=np.float64))
        kind, back = roundtrip(pm)
        assert kind == W_PAIR_CMS  # one run of 100: CMS is far smaller
        np.testing.assert_array_equal(back.ranks, pm.ranks)
        np.testing.assert_array_equal(back.values, pm.values)
        assert back.ranks.dtype == pm.ranks.dtype

    def test_scattered_ranks_pick_sss(self):
        pm = PairMessage(ranks=np.arange(0, 200, 2, dtype=np.int64),
                         values=np.ones(100))
        kind, back = roundtrip(pm)
        assert kind == W_PAIR_SSS  # 100 singleton runs: pairs are smaller
        np.testing.assert_array_equal(back.ranks, pm.ranks)

    @staticmethod
    def _runs(lengths):
        """A pair message whose ranks form runs of the given lengths."""
        ranks, base = [], 0
        for n in lengths:
            ranks.extend(range(base, base + n))
            base += n + 1  # gap: the next run starts a new segment
        ranks = np.array(ranks, dtype=np.int64)
        return PairMessage(ranks=ranks,
                           values=np.arange(ranks.size, dtype=np.float64))

    def _assert_exact(self, back, pm):
        np.testing.assert_array_equal(back.ranks, pm.ranks)
        np.testing.assert_array_equal(back.values, pm.values)
        assert back.ranks.dtype == pm.ranks.dtype
        assert back.values.dtype == pm.values.dtype

    def test_tie_keeps_pairs(self):
        # 100 elements in 50 runs: CMS and SSS bytes are equal (1600),
        # and the encoder keeps the pair form on a tie.
        pm = self._runs([2] * 50)
        assert pair_runs(pm.ranks)[0].size == 50
        kind, back = roundtrip(pm)
        assert kind == W_PAIR_SSS
        self._assert_exact(back, pm)

    def test_one_run_below_tie_ships_segments(self):
        # 100 elements in 49 runs: segments are 16 bytes smaller.
        pm = self._runs([2] * 48 + [4])
        assert pair_runs(pm.ranks)[0].size == 49
        kind, back = roundtrip(pm)
        assert kind == W_PAIR_CMS
        self._assert_exact(back, pm)

    def test_crossover_at_mean_run_length_two(self):
        # CMS wins iff 16*segments < 8*count, i.e. mean run length > 2 —
        # the byte-level image of the paper's E + 2*Gs < 2*E.
        assert wire_bytes_pair_cms(100, 49) < wire_bytes_pair_sss(100)
        assert wire_bytes_pair_cms(100, 50) == wire_bytes_pair_sss(100)
        assert wire_bytes_pair_cms(100, 51) > wire_bytes_pair_sss(100)

    def test_pair_runs_inverts_expand(self):
        bases, counts = pair_runs(np.array([1, 2, 3, 7, 8, 20], dtype=np.int64))
        assert list(bases) == [1, 7, 20]
        assert list(counts) == [3, 2, 1]

    def test_pair_runs_empty(self):
        bases, counts = pair_runs(np.empty(0, dtype=np.int64))
        assert bases.size == 0 and counts.size == 0
