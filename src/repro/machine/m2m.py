"""Many-to-many personalized communication.

The redistribution stage of PACK/UNPACK requires every processor to send a
different message to an arbitrary subset of processors — *many-to-many
personalized communication*.  The paper (Section 7) schedules it with the
**linear permutation** algorithm of Ranka/Wang/Fox [9]: at step
``k = 1 .. P-1`` processor ``i`` sends to ``(i + k) mod P`` and receives
from ``(i - k) mod P``.  On a congestion-free crossbar this is both simple
and contention-free; under the two-level model its cost for maximum
per-processor out-volume ``m`` is ``(P-1) * tau + mu * m_total``.

Two schedule variants are provided for ablation:

``linear``
    the paper's schedule.  Steps with an empty message are skipped entirely
    (no start-up charged), mirroring an active-message implementation where
    silence is free.  Receivers know how many messages to expect because a
    message-count exchange precedes the data exchange (the count exchange is
    itself a linear permutation of single-word messages and is charged).
``naive``
    all (P-1) potential partners are contacted every step even when the
    message is empty; isolates the benefit of skipping.
``direct``
    every processor walks destinations in ascending rank order (0, 1,
    ...), so at step 0 *all* processors target rank 0, then rank 1, and
    so on.  Under the paper's contention-free model this costs the same
    as naive; with receiver-port contention (``spec.rx_port``) it
    hot-spots every destination in turn and serializes — the failure mode
    the linear permutation exists to avoid [9].

Self-messages bypass the network (the paper notes local copies were not
performed at all in their implementation); :func:`exchange` honours that and
optionally charges a memcpy via ``self_copy_charge``.
"""

from __future__ import annotations

from typing import Any, Generator, Mapping

from .context import Context, payload_words
from .ops import CollectiveOp

__all__ = ["exchange", "exchange_counts", "SCHEDULES"]

SCHEDULES = ("linear", "naive", "direct")

#: Tag block reserved for m2m traffic so it cannot collide with collectives.
_COUNT_TAG = 901
_DATA_TAG = 902


def exchange_counts(
    ctx: Context, counts: Mapping[int, int], tag: int = _COUNT_TAG
) -> Generator[Any, Any, dict[int, int]]:
    """All-to-all of per-destination word counts (communication detection).

    Every processor learns, for each source, how many words that source
    will send it in the upcoming data exchange (0 meaning "no message"),
    so the data exchange can skip empty messages safely.

    On machines with a combining control network (the CM-5) the counts
    ride one hardware reduction of a length-P vector — essentially free
    compared to ``P-1`` point-to-point start-ups.  Otherwise a linear
    permutation of single-word messages is used.

    Returns a dict ``source -> words`` with only non-zero entries.
    """
    P = ctx.size
    incoming: dict[int, int] = {}
    ctx.count("m2m.count_exchanges")

    if ctx.spec.has_control_network:
        # One combining operation: member contributions are routed so each
        # rank receives the column of counts addressed to it.
        def _combine(payloads: dict) -> tuple[dict, int]:
            # Invert sender -> {dest: words} into dest -> {sender: words};
            # walking the sparse outgoing maps is O(P + messages), not the
            # O(P^2) of probing every (sender, dest) pair.
            results: dict = {r: {} for r in payloads}
            for s, c in payloads.items():
                for r, w in c.items():
                    if r != s and int(w):
                        results[r][s] = int(w)
            return results, P

        got = yield CollectiveOp(
            group=tuple(range(P)),
            kind="m2m-counts",
            payload={d: int(w) for d, w in counts.items()},
            key=tag,
            combine=_combine,
        )
        incoming.update(got)
    else:
        for k in range(1, P):
            dest = (ctx.rank + k) % P
            src = (ctx.rank - k) % P
            ctx.send(dest, int(counts.get(dest, 0)), words=1, tag=tag)
            msg = yield ctx.recv(source=src, tag=tag)
            if msg.payload:
                incoming[src] = int(msg.payload)
    self_words = int(counts.get(ctx.rank, 0))
    if self_words:
        incoming[ctx.rank] = self_words
    return incoming


def exchange(
    ctx: Context,
    outgoing: Mapping[int, Any],
    words: Mapping[int, int] | None = None,
    schedule: str = "linear",
    self_copy_charge: bool = False,
    tag: int = _DATA_TAG,
    announce: bool = True,
) -> Generator[Any, Any, dict[int, Any]]:
    """Perform one many-to-many personalized exchange.

    Parameters
    ----------
    ctx:
        the rank's machine context.
    outgoing:
        ``dest -> payload``; destinations absent from the map receive
        nothing.  A self-entry is delivered locally without network cost.
    words:
        optional ``dest -> words`` overriding automatic payload sizing.
    schedule:
        ``"linear"`` (skip empty steps, after a count pre-exchange) or
        ``"naive"`` (contact every partner every step).
    self_copy_charge:
        charge a per-word local copy for the self-message (ablation knob).
    announce:
        for the linear schedule, whether to run the count pre-exchange.
        Callers that already know the incoming pattern (e.g. because a
        previous exchange announced it) may skip it by passing a complete
        ``outgoing`` map and ``announce=False`` — then empty steps still
        send zero-word headers so receivers can terminate.

    Returns
    -------
    dict ``source -> payload`` of everything received (self included).
    """
    if schedule not in SCHEDULES:
        raise ValueError(f"unknown m2m schedule {schedule!r}; pick from {SCHEDULES}")
    P = ctx.size
    sizes = {
        d: (words[d] if words is not None and d in words else payload_words(p))
        for d, p in outgoing.items()
    }
    received: dict[int, Any] = {}

    if ctx.metrics is not None:
        # Exchange structure: how many partners each rank actually sends
        # to (the schedule's effective fan-out) and the data volume it
        # contributes, per exchange.
        ctx.count("m2m.exchanges")
        ctx.count(f"m2m.schedule.{schedule}")
        fanout = sum(1 for d, s in sizes.items() if d != ctx.rank and s > 0)
        ctx.observe("m2m.fanout", fanout)
        ctx.observe(
            "m2m.words_out", sum(s for d, s in sizes.items() if d != ctx.rank)
        )

    # Real-process fast path: the mp driver executes ops imperatively, so
    # the announced linear schedule lowers to the aggregated native
    # alltoallv — one counts collective, bulk ring writes fired in the
    # same linear-permutation order, one arrival-order drain.  Same
    # messages, same payloads; only the host-side mechanics differ.
    native = getattr(ctx, "alltoallv_native", None)
    if (native is not None and schedule == "linear" and announce
            and ctx.spec.has_control_network):
        return native(outgoing, sizes, tag, _COUNT_TAG,
                      self_copy_charge=self_copy_charge)

    if ctx.rank in outgoing:
        ctx.local_copy(sizes[ctx.rank], charge=self_copy_charge)
        received[ctx.rank] = outgoing[ctx.rank]

    if schedule == "naive":
        for k in range(1, P):
            dest = (ctx.rank + k) % P
            src = (ctx.rank - k) % P
            payload = outgoing.get(dest)
            ctx.send(dest, payload, words=sizes.get(dest, 0), tag=tag)
            msg = yield ctx.recv(source=src, tag=tag)
            if msg.payload is not None:
                received[src] = msg.payload
        return received

    if schedule == "direct":
        # Ascending destination order: fire everything, then drain.  The
        # common hot-spot pattern the linear permutation avoids.
        for dest in range(P):
            if dest == ctx.rank:
                continue
            ctx.send(dest, outgoing.get(dest), words=sizes.get(dest, 0), tag=tag)
        for src in range(P):
            if src == ctx.rank:
                continue
            msg = yield ctx.recv(source=src, tag=tag)
            if msg.payload is not None:
                received[src] = msg.payload
        return received

    # Linear schedule with empty-step skipping.
    if announce:
        incoming_sizes = yield from exchange_counts(
            ctx, {d: s for d, s in sizes.items() if d != ctx.rank}
        )
    else:
        incoming_sizes = None

    # Fire every send in linear-permutation order, then drain the
    # receives.  This is the active-message style of the paper's CMMD
    # implementation: the permutation staggers the traffic so each
    # destination sees at most one in-flight message per time window
    # (what makes the schedule contention-free on real ports), and no
    # lockstep recv ever stalls the send stream.
    for k in range(1, P):
        dest = (ctx.rank + k) % P
        if incoming_sizes is None:
            # No-announce mode: full handshake so receivers can terminate.
            ctx.send(dest, outgoing.get(dest), words=sizes.get(dest, 0), tag=tag)
        elif dest in outgoing and sizes.get(dest, 0) > 0:
            ctx.send(dest, outgoing[dest], words=sizes[dest], tag=tag)
    for k in range(1, P):
        src = (ctx.rank - k) % P
        if incoming_sizes is None:
            msg = yield ctx.recv(source=src, tag=tag)
            if msg.payload is not None:
                received[src] = msg.payload
        elif src in incoming_sizes:
            msg = yield ctx.recv(source=src, tag=tag)
            received[src] = msg.payload
    return received
