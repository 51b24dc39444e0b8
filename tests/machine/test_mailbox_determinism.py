"""The indexed mailbox and port booking match the seed scan bit-for-bit.

The perf rewrite replaced two O(n)-scan structures on the engine's hot
path — the per-receive mailbox scan and the receive-port first-fit scan —
with indexed equivalents (per-channel heaps + lazy-deletion global heap;
bisected interval lists).  Matching is part of the determinism contract:
the winner of every receive must be the pending message with the smallest
``(arrival_time, seq)`` among those the pattern matches, and a port
booking must land in the earliest first-fit gap.  These tests pin that by
running the same workloads against straightforward reference
implementations of the seed semantics and requiring bit-identical
results: same matched sequence numbers op-by-op, and identical
RunResults (clocks, idle time, phase times, payload bytes) end-to-end —
including ANY-source receives and port contention.
"""

import random
from bisect import bisect_right

import numpy as np
import pytest

from repro.core.api import pack, unpack
from repro.machine import engine as engine_mod
from repro.machine.engine import Machine
from repro.machine.mailbox import Mailbox
from repro.machine.ops import ANY, Message, Recv
from repro.machine.spec import CM5

PORT = CM5.with_(rx_port=True)


class ReferenceMailbox:
    """The seed mailbox: a list scanned in full on every match."""

    def __init__(self, rank: int):
        self.rank = rank
        self._pending: list[Message] = []

    def __len__(self) -> int:
        return len(self._pending)

    def deposit(self, msg: Message) -> None:
        if msg.dest != self.rank:
            raise ValueError(f"message for {msg.dest} deposited at rank {self.rank}")
        self._pending.append(msg)

    def match(self, pattern: Recv) -> Message | None:
        best = None
        best_i = -1
        for i, msg in enumerate(self._pending):
            if not pattern.matches(msg):
                continue
            key = (msg.arrival_time, msg.seq)
            if best is None or key < (best.arrival_time, best.seq):
                best = msg
                best_i = i
        if best is not None:
            del self._pending[best_i]
        return best

    def would_match(self, pattern: Recv) -> bool:
        return any(pattern.matches(m) for m in self._pending)

    def peek_all(self):
        return tuple(sorted(self._pending, key=lambda m: m.seq))


def reference_reserve_port(self, dest, ready, transfer):
    """The seed booking: first-fit scan over the whole schedule from the
    start (intervals disjoint, never coalesced)."""
    starts, ends = self._port_busy[dest]
    start = ready
    for j in range(len(starts)):
        if starts[j] >= start + transfer:
            break
        if ends[j] > start:
            start = ends[j]
    end = start + transfer
    i = bisect_right(starts, start)
    starts.insert(i, start)
    ends.insert(i, end)
    return end


def _msg(source, dest, tag, arrival, seq):
    return Message(
        source=source, dest=dest, tag=tag, payload=seq, words=1,
        send_time=arrival, arrival_time=arrival, seq=seq,
    )


def _random_pattern(rng):
    source = ANY if rng.random() < 0.4 else rng.randrange(4)
    tag = ANY if rng.random() < 0.4 else rng.randrange(3)
    return Recv(source=source, tag=tag)


class TestMailboxAgainstReferenceScan:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_op_sequences_match_op_by_op(self, seed):
        """Interleaved deposits and matches: both mailboxes must return
        the same message (by seq) for every pattern, including arrival
        times deposited out of order (port gap-filling, delay faults)."""
        rng = random.Random(seed)
        fast, ref = Mailbox(0), ReferenceMailbox(0)
        seq = 0
        for _ in range(400):
            if rng.random() < 0.55 or len(ref) == 0:
                seq += 1
                # Arrival times deliberately non-monotone in deposit order.
                m = _msg(rng.randrange(4), 0, rng.randrange(3),
                         arrival=rng.choice([0.0, 1.0, 2.0, rng.random() * 3]),
                         seq=seq)
                fast.deposit(m)
                ref.deposit(m)
            else:
                pat = _random_pattern(rng)
                assert fast.would_match(pat) == ref.would_match(pat)
                got_fast = fast.match(pat)
                got_ref = ref.match(pat)
                assert (got_fast is None) == (got_ref is None)
                if got_fast is not None:
                    assert got_fast.seq == got_ref.seq
            assert len(fast) == len(ref)
        # Drain fully wildcard: the complete order must agree.
        drain = Recv(source=ANY, tag=ANY)
        while len(ref):
            assert fast.match(drain).seq == ref.match(drain).seq
        assert fast.match(drain) is None

    def test_peek_all_agrees(self):
        fast, ref = Mailbox(0), ReferenceMailbox(0)
        for seq, (src, tag, t) in enumerate(
            [(1, 0, 2.0), (2, 1, 1.0), (1, 1, 1.0), (3, 0, 0.5)], start=1
        ):
            m = _msg(src, 0, tag, t, seq)
            fast.deposit(m)
            ref.deposit(m)
        fast.match(Recv(source=2, tag=ANY))
        ref.match(Recv(source=2, tag=ANY))
        assert [m.seq for m in fast.peek_all()] == [m.seq for m in ref.peek_all()]


def _fingerprint(res):
    """Everything observable about a run, hashable for exact comparison."""
    payload = []
    for r in res.results:
        if isinstance(r, np.ndarray):
            payload.append((r.tobytes(), str(r.dtype)))
        else:
            payload.append(repr(r))
    return (
        tuple(payload),
        tuple(s.clock for s in res.stats),
        tuple(s.idle_time for s in res.stats),
        tuple(s.sends for s in res.stats),
        tuple(s.recvs for s in res.stats),
        tuple(s.words_sent for s in res.stats),
        tuple(s.words_received for s in res.stats),
        tuple(tuple(sorted(s.phase_times.items())) for s in res.stats),
    )


def _run_both(monkeypatch, run_fn):
    """Run once with the indexed structures, once with the references."""
    fast = run_fn()
    monkeypatch.setattr(engine_mod, "Mailbox", ReferenceMailbox)
    monkeypatch.setattr(Machine, "_reserve_port", reference_reserve_port)
    ref = run_fn()
    monkeypatch.undo()
    return fast, ref


class TestEngineRunsBitIdentical:
    def test_any_source_fan_in(self, monkeypatch):
        """ANY-source receives drain a fan-in in (arrival, seq) order."""

        def prog(ctx):
            got = []
            if ctx.rank == 0:
                for _ in range(3 * (ctx.size - 1)):
                    msg = yield ctx.recv(source=ANY, tag=ANY)
                    got.append((msg.source, msg.tag, msg.payload))
            else:
                for i in range(3):
                    ctx.work(ctx.rank * 50 * (i + 1))
                    ctx.send(0, (ctx.rank, i), words=4 + ctx.rank, tag=i)
            return got

        def run():
            return _fingerprint(Machine(6, CM5).run(prog))

        fast, ref = _run_both(monkeypatch, run)
        assert fast == ref

    def test_mixed_wildcard_patterns_under_port_contention(self, monkeypatch):
        """Half-wildcard receives while the rx port reorders arrivals."""

        def prog(ctx):
            got = []
            if ctx.rank == 0:
                for tag in (2, 1, 0):  # tag-specific, any source
                    for _ in range(ctx.size - 1):
                        msg = yield ctx.recv(source=ANY, tag=tag)
                        got.append((msg.source, msg.payload))
                for src in range(1, ctx.size):  # source-specific, any tag
                    msg = yield ctx.recv(source=src, tag=ANY)
                    got.append((src, msg.payload))
            else:
                ctx.work(ctx.rank * 37)
                for tag in range(3):
                    ctx.send(0, ctx.rank * 10 + tag, words=64, tag=tag)
                ctx.send(0, "last", words=8, tag=9)
            return got

        def run():
            return _fingerprint(Machine(5, PORT).run(prog))

        fast, ref = _run_both(monkeypatch, run)
        assert fast == ref

    def test_pack_macro_run(self, monkeypatch):
        rng = np.random.default_rng(7)
        array = np.arange(1024, dtype=np.int64)
        mask = rng.random(1024) < 0.4

        def run():
            res = pack(array, mask, 8, scheme="cms", spec=PORT,
                       m2m_schedule="direct", validate=True)
            return (res.vector.tobytes(), res.total_ms,
                    _fingerprint(res.run)[1:])

        fast, ref = _run_both(monkeypatch, run)
        assert fast == ref

    def test_unpack_macro_run(self, monkeypatch):
        rng = np.random.default_rng(8)
        mask = rng.random(1024) < 0.3
        vec = np.arange(int(mask.sum()), dtype=np.int64)
        field = np.full(1024, -1, dtype=np.int64)

        def run():
            res = unpack(vec, mask, field, 8, scheme="css", validate=True)
            return (res.array.tobytes(), res.total_ms,
                    _fingerprint(res.run)[1:])

        fast, ref = _run_both(monkeypatch, run)
        assert fast == ref
