"""SPSC shm ring unit tests: wraparound, slab spill, backpressure, doorbell.

These exercise :mod:`repro.runtime.shm_ring` directly with threads as
producer/consumer (the SPSC protocol does not care whether the peer is a
thread or a forked process — the fork path is covered by the transport
tests).  The autouse conftest fixture asserts no /dev/shm residue.
"""

import os
import threading
import time

import pytest

from repro.runtime.shm_ring import RECORD, RingConfig, RingMatrix


SMALL = RingConfig(nslots=4, slot_bytes=128, slab_bytes=256)


@pytest.fixture
def matrix():
    m = RingMatrix(2, SMALL)
    yield m
    m.destroy()


def _send(ep, dst, payload, tag=0, epoch=0, op_id=0):
    ep.send(dst, epoch=epoch, op_id=op_id, tag=tag, kind=0, wire=0,
            words=0, clock=0.0, parts=[payload], nbytes=len(payload))


class TestRecordRing:
    def test_header_and_inline_payload_roundtrip(self, matrix):
        ep0, ep1 = matrix.endpoint(0), matrix.endpoint(1)
        ep0.send(1, epoch=3, op_id=9, tag=7, kind=2, wire=4, words=11,
                 clock=1.5, parts=[b"he", b"llo"], nbytes=5)
        r = ep1.wait()
        assert (r.src, r.epoch, r.op_id, r.tag, r.kind, r.wire, r.words,
                r.clock) == (0, 3, 9, 7, 2, 4, 11, 1.5)
        assert r.data == b"hello"

    def test_wraparound_preserves_fifo(self, matrix):
        # 20 records through 4 slots: the consumer must interleave, and
        # every sequence counter laps the ring several times.
        ep0, ep1 = matrix.endpoint(0), matrix.endpoint(1)
        got = []

        def consume():
            for _ in range(20):
                got.append(ep1.wait().data)

        t = threading.Thread(target=consume)
        t.start()
        for i in range(20):
            _send(ep0, 1, bytes([i]) * 10, tag=i)
        t.join(10)
        assert not t.is_alive()
        assert got == [bytes([i]) * 10 for i in range(20)]

    def test_full_ring_backpressure_blocks_then_completes(self, matrix):
        # Fill every slot, then assert the next send blocks until the
        # consumer frees one.
        ep0, ep1 = matrix.endpoint(0), matrix.endpoint(1)
        for i in range(SMALL.nslots):
            _send(ep0, 1, b"x", tag=i)
        blocked = threading.Event()
        done = threading.Event()

        def overflow_send():
            ep0.send(1, epoch=0, op_id=0, tag=99, kind=0, wire=0, words=0,
                     clock=0.0, parts=[b"y"], nbytes=1,
                     on_wait=blocked.set)
            done.set()

        t = threading.Thread(target=overflow_send)
        t.start()
        assert blocked.wait(5.0), "send should report backpressure"
        assert not done.is_set()
        tags = [ep1.wait().tag for _ in range(SMALL.nslots + 1)]
        t.join(10)
        assert done.is_set()
        assert tags == list(range(SMALL.nslots)) + [99]

    def test_deadline_expiry_returns_none(self, matrix):
        ep0 = matrix.endpoint(0)
        t0 = time.monotonic()
        assert ep0.wait(deadline=t0 + 0.05) is None
        assert time.monotonic() - t0 < 5.0


class TestSlabStream:
    def test_spill_threshold(self, matrix):
        # inline_max is the exact boundary: one byte more goes to slab.
        ep0, ep1 = matrix.endpoint(0), matrix.endpoint(1)
        boundary = SMALL.inline_max
        assert boundary == SMALL.slot_bytes - RECORD.size
        _send(ep0, 1, b"a" * boundary)
        _send(ep0, 1, b"b" * (boundary + 1))
        r1, r2 = ep1.wait(), ep1.wait()
        assert r1.data == b"a" * boundary
        assert r2.data == b"b" * (boundary + 1)

    def test_payload_larger_than_slab_ring(self, matrix):
        # 1000 bytes through a 256-byte slab ring: multiple flow-control
        # rounds, producer and consumer strictly interleaved.
        ep0, ep1 = matrix.endpoint(0), matrix.endpoint(1)
        big = os.urandom(1000)
        got = {}

        def consume():
            got["data"] = ep1.wait().data

        t = threading.Thread(target=consume)
        t.start()
        _send(ep0, 1, big)
        t.join(10)
        assert not t.is_alive()
        assert got["data"] == big

    def test_slab_records_interleave_with_inline(self, matrix):
        ep0, ep1 = matrix.endpoint(0), matrix.endpoint(1)
        payloads = [b"s", os.urandom(500), b"t", os.urandom(300)]
        got = []

        def consume():
            for _ in payloads:
                got.append(ep1.wait().data)

        t = threading.Thread(target=consume)
        t.start()
        for p in payloads:
            _send(ep0, 1, p)
        t.join(10)
        assert not t.is_alive()
        assert got == payloads


class TestDoorbell:
    def test_blocked_consumer_woken_by_late_producer(self, matrix):
        # The consumer exhausts its spin/yield budget and parks on the
        # doorbell; a producer arriving afterwards must wake it promptly.
        ep0, ep1 = matrix.endpoint(0), matrix.endpoint(1)
        got = {}

        def consume():
            got["rec"] = ep1.wait(deadline=time.monotonic() + 30.0)

        t = threading.Thread(target=consume)
        t.start()
        time.sleep(0.3)  # let the consumer reach the doorbell phase
        _send(ep0, 1, b"wake", tag=5)
        t.join(10)
        assert not t.is_alive()
        assert got["rec"] is not None and got["rec"].data == b"wake"

    def test_waiting_flag_cleared_after_wakeup(self, matrix):
        ep0, ep1 = matrix.endpoint(0), matrix.endpoint(1)

        def consume():
            ep1.wait()

        t = threading.Thread(target=consume)
        t.start()
        time.sleep(0.2)
        _send(ep0, 1, b"z")
        t.join(10)
        assert int(matrix._flags[1]) == 0


class TestBidirectional:
    def test_both_directions_share_the_matrix(self, matrix):
        ep0, ep1 = matrix.endpoint(0), matrix.endpoint(1)
        _send(ep0, 1, b"fwd", tag=1)
        _send(ep1, 0, b"rev", tag=2)
        assert ep1.wait().data == b"fwd"
        assert ep0.wait().data == b"rev"

    def test_payload_copy_is_writable(self, matrix):
        # Both the inline and slab paths must deliver a mutable buffer:
        # decoded numpy views over it are the program's to write.
        ep0, ep1 = matrix.endpoint(0), matrix.endpoint(1)
        _send(ep0, 1, b"tiny")
        # > inline_max so it streams through the slab, but < slab_bytes
        # so the single-threaded send completes without a consumer.
        _send(ep0, 1, b"x" * 200)
        for expect in (b"tiny", b"x" * 200):
            r = ep1.wait()
            assert isinstance(r.data, bytearray)
            r.data[0:1] = b"Y"  # must not raise
            assert r.data[1:] == expect[1:]


def _cooperative_runner(ep, dst, payloads, results):
    """Send every payload before receiving any — the alltoallv pattern.

    A blocked send drains the endpoint's own incoming rings through the
    non-blocking ``progress`` hook (as ``_RingTransport`` does), which
    is the only thing that lets two ranks both mid-send get unstuck.
    """
    drained = []

    def progress():
        r = ep.progress()
        if r is True or r is False:
            return r
        drained.append(r.data)
        return True

    for i, payload in enumerate(payloads):
        ep.send(dst, epoch=0, op_id=0, tag=i, kind=0, wire=0, words=0,
                clock=0.0, parts=[payload], nbytes=len(payload),
                progress=progress)
    while len(drained) < len(payloads):
        r = ep.wait(deadline=time.monotonic() + 10)
        assert r is not None, "peer traffic never arrived"
        drained.append(r.data)
    results[ep.rank] = drained


class TestCooperativeBackpressure:
    """The REVIEW cyclic-deadlock scenario, at the ring level."""

    def test_cyclic_slab_sends_complete(self, matrix):
        # Each payload is ~4x the 256-byte slab ring, and both sides
        # send before either receives: without the cooperative drain
        # both block in send forever, ring deadlocked.
        ep0, ep1 = matrix.endpoint(0), matrix.endpoint(1)
        p0, p1 = os.urandom(1000), os.urandom(900)
        results = {}
        t0 = threading.Thread(target=_cooperative_runner,
                              args=(ep0, 1, [p0], results))
        t1 = threading.Thread(target=_cooperative_runner,
                              args=(ep1, 0, [p1], results))
        t0.start(); t1.start()
        t0.join(15); t1.join(15)
        assert not t0.is_alive() and not t1.is_alive()
        assert results[1] == [p0]
        assert results[0] == [p1]

    def test_cyclic_slot_backpressure_completes(self, matrix):
        # Same cycle through the record ring: 3x more inline sends than
        # slots, fired in both directions before any receive.
        ep0, ep1 = matrix.endpoint(0), matrix.endpoint(1)
        n = SMALL.nslots * 3
        p0 = [bytes([i]) * 8 for i in range(n)]
        p1 = [bytes([100 + i]) * 8 for i in range(n)]
        results = {}
        t0 = threading.Thread(target=_cooperative_runner,
                              args=(ep0, 1, p0, results))
        t1 = threading.Thread(target=_cooperative_runner,
                              args=(ep1, 0, p1, results))
        t0.start(); t1.start()
        t0.join(15); t1.join(15)
        assert not t0.is_alive() and not t1.is_alive()
        assert results[1] == p0  # SPSC order survives the drain path
        assert results[0] == p1


class TestConfig:
    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            RingConfig(nslots=1)
        with pytest.raises(ValueError, match="too small"):
            RingConfig(slot_bytes=RECORD.size)
        with pytest.raises(ValueError, match="too small"):
            RingConfig(slab_bytes=32)

    def test_destroy_is_idempotent(self):
        m = RingMatrix(2, SMALL)
        m.endpoint(0)
        m.destroy()
        m.destroy()
