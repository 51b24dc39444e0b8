"""Per-rank mailboxes with deterministic, indexed matching.

Sends in the simulator are eager and buffered: the sender deposits the
message into the receiver's mailbox immediately (stamped with its arrival
time) and continues.  A receive takes, among the queued messages its
pattern matches, the one with the smallest ``(arrival_time, seq)``.
Because sequence numbers are issued globally in simulation order, matching
is fully deterministic, and per ``(source, tag)`` channel delivery is FIFO
— the ordering contract every algorithm in this library is written
against.

The seed implementation scanned every pending message per ``match`` —
O(pending) per receive, O(pending^2) to drain a mailbox, which dominated
wall-clock time in many-to-many rounds (each of P ranks drains up to P-1
buffered messages).  This version indexes the store instead:

* one min-heap per ``(source, tag)`` **channel**, keyed by
  ``(arrival_time, seq)`` — arrival times within a channel need *not* be
  monotone (receive-port gap-filling can reorder them), so a heap rather
  than a FIFO deque is required for the exact seed contract;
* ``source -> tags`` and ``tag -> sources`` secondary indexes, so a
  half-wildcard pattern peeks only the live channels it could match
  (typically a handful) instead of every message;
* one global heap over all messages for fully-wildcard patterns, with
  lazy deletion: a message popped through any other path leaves a stale
  entry behind, skipped (and reclaimed) the next time it surfaces.

Every operation is O(log pending) amortised, and ``would_match`` is a
peek, not a scan.  Matching results are bit-for-bit identical to the seed
scan (verified by ``tests/machine/test_mailbox_determinism.py``).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable

from .ops import ANY, Message, Recv

__all__ = ["Mailbox"]


class Mailbox:
    """Indexed message store for one receiving rank."""

    __slots__ = ("rank", "_channels", "_by_source", "_by_tag", "_all",
                 "_stale", "_count")

    def __init__(self, rank: int):
        self.rank = rank
        # (source, tag) -> heap of (arrival_time, seq, msg)
        self._channels: dict[tuple[int, int], list] = {}
        self._by_source: dict[int, set[int]] = {}
        self._by_tag: dict[int, set[int]] = {}
        # Global heap for (ANY, ANY); entries removed lazily.
        self._all: list = []
        # Seqs physically removed from one heap whose twin entry is stale.
        self._stale: set[int] = set()
        self._count = 0

    def __len__(self) -> int:
        return self._count

    # -------------------------------------------------------------- deposit
    def deposit(self, msg: Message) -> None:
        if msg.dest != self.rank:
            raise ValueError(f"message for {msg.dest} deposited at rank {self.rank}")
        entry = (msg.arrival_time, msg.seq, msg)
        key = (msg.source, msg.tag)
        heap = self._channels.get(key)
        if heap is None:
            self._channels[key] = [entry]
            self._by_source.setdefault(msg.source, set()).add(msg.tag)
            self._by_tag.setdefault(msg.tag, set()).add(msg.source)
        else:
            heappush(heap, entry)
        heappush(self._all, entry)
        self._count += 1

    # ------------------------------------------------------------- matching
    def _drop_channel(self, key: tuple[int, int]) -> None:
        del self._channels[key]
        source, tag = key
        tags = self._by_source[source]
        tags.discard(tag)
        if not tags:
            del self._by_source[source]
        sources = self._by_tag[tag]
        sources.discard(source)
        if not sources:
            del self._by_tag[tag]

    def _peek_channel(self, key: tuple[int, int]):
        """Head entry of one channel, or None.

        Channel heaps hold no stale entries — removal always pops the
        channel copy physically and leaves the stale twin in ``_all`` —
        and emptied channels are dropped eagerly, so a present heap is
        non-empty and its head is live.
        """
        heap = self._channels.get(key)
        return heap[0] if heap else None

    def _best_key(self, pattern: Recv) -> tuple[int, int] | None:
        """Channel holding the pattern's best match, or None."""
        source, tag = pattern.source, pattern.tag
        if source is not ANY and tag is not ANY:
            key = (source, tag)
            return key if self._peek_channel(key) is not None else None
        if source is not ANY:
            candidates = [(source, t) for t in self._by_source.get(source, ())]
        elif tag is not ANY:
            candidates = [(s, tag) for s in self._by_tag.get(tag, ())]
        else:
            # Fully wildcard: the global heap's live head is the answer.
            heap, stale = self._all, self._stale
            while heap:
                entry = heap[0]
                if entry[1] in stale:
                    heappop(heap)
                    stale.discard(entry[1])
                else:
                    msg = entry[2]
                    return (msg.source, msg.tag)
            return None
        best_key = None
        best = None
        for key in candidates:
            entry = self._peek_channel(key)
            if entry is not None and (best is None or entry < best):
                best = entry
                best_key = key
        return best_key

    def match(self, pattern: Recv) -> Message | None:
        """Remove and return the best matching message, or None.

        "Best" is the smallest ``(arrival_time, seq)`` pair, which keeps
        simulation time causal and tie-breaks deterministically.
        """
        key = self._best_key(pattern)
        if key is None:
            return None
        entry = heappop(self._channels[key])
        if not self._channels[key]:
            self._drop_channel(key)
        # Its twin in the global heap is now stale.
        self._stale.add(entry[1])
        self._count -= 1
        return entry[2]

    def would_match(self, pattern: Recv) -> bool:
        return self._best_key(pattern) is not None

    # ------------------------------------------------------------ inspection
    def peek_all(self) -> Iterable[Message]:
        """All pending messages, in deposit (sequence) order."""
        live = [e for heap in self._channels.values() for e in heap]
        live.sort(key=lambda e: e[1])
        return tuple(e[2] for e in live)

    def __repr__(self) -> str:
        return f"Mailbox(rank={self.rank}, pending={self._count})"
