"""Engine robustness: late-wake guard, double-join guard, watchdog,
wait-for graphs."""

import pytest

from repro.machine import (
    ANY,
    CollectiveOp,
    DeadlockError,
    Machine,
    MachineSpec,
    Message,
    Recv,
)
from repro.machine.engine import _PendingCollective
from repro.machine.errors import CollectiveMismatchError, WatchdogError
from repro.machine.mailbox import Mailbox

SPEC = MachineSpec(tau=10e-6, mu=1e-6, delta=0.1e-6, name="test")


def _msg(source=0, dest=1, tag=0, seq=1, arrival=1.0):
    return Message(
        source=source, dest=dest, tag=tag, payload=None, words=1,
        send_time=0.0, arrival_time=arrival, seq=seq,
    )


class TestWouldMatch:
    def test_empty_mailbox_matches_nothing(self):
        assert not Mailbox(1).would_match(Recv(source=ANY, tag=ANY))

    def test_source_and_tag_selectivity(self):
        box = Mailbox(1)
        box.deposit(_msg(source=3, tag=7))
        assert box.would_match(Recv(source=3, tag=7))
        assert box.would_match(Recv(source=ANY, tag=7))
        assert box.would_match(Recv(source=3, tag=ANY))
        assert not box.would_match(Recv(source=2, tag=7))
        assert not box.would_match(Recv(source=3, tag=8))

    def test_does_not_consume(self):
        box = Mailbox(1)
        box.deposit(_msg())
        pattern = Recv(source=ANY, tag=ANY)
        assert box.would_match(pattern) and box.would_match(pattern)
        assert len(box) == 1
        assert box.match(pattern) is not None
        assert not box.would_match(pattern)


class SleepyMachine(Machine):
    """Deposits messages without ever waking a blocked receiver, to prove
    the scheduler's late-wake guard recovers on its own."""

    def _deliver(self, source, dest, tag, payload, words, send_clock):
        self._seq += 1
        msg = Message(
            source=source, dest=dest, tag=tag, payload=payload, words=words,
            send_time=send_clock, arrival_time=send_clock, seq=self._seq,
        )
        self._mailboxes[dest].deposit(msg)


class TestLateWakeGuard:
    def test_blocked_recv_recovers_without_wake(self):
        # Rank 0 blocks first; rank 1's send deposits silently, then rank 1
        # blocks too.  With nobody runnable the loop must notice rank 0's
        # mailbox would match and re-queue it (and later rank 1 likewise).
        def prog(ctx):
            if ctx.rank == 0:
                msg = yield ctx.recv(source=1)
                ctx.send(1, msg.payload * 2, words=1)
                return "zero"
            ctx.send(0, 21, words=1)
            reply = yield ctx.recv(source=0)
            return reply.payload

        res = SleepyMachine(2, SPEC).run(prog)
        assert res.results == ["zero", 42]

    def test_normal_machine_same_results(self):
        def prog(ctx):
            if ctx.rank == 0:
                msg = yield ctx.recv(source=1)
                return msg.payload
            ctx.send(0, "data", words=1)
            return None

        assert SleepyMachine(2, SPEC).run(prog).results == \
            Machine(2, SPEC).run(prog).results


class TestDoubleJoinGuard:
    def _op(self, **kw):
        defaults = dict(group=(0, 1, 2), kind="sum", payload=0)
        defaults.update(kw)
        return CollectiveOp(**defaults)

    def test_double_join_rejected(self):
        pending = _PendingCollective(self._op())
        pending.join(0, self._op())
        with pytest.raises(CollectiveMismatchError, match="twice"):
            pending.join(0, self._op())

    def test_mismatched_kind_and_group_rejected(self):
        pending = _PendingCollective(self._op())
        with pytest.raises(CollectiveMismatchError):
            pending.join(1, self._op(kind="max"))
        with pytest.raises(CollectiveMismatchError):
            pending.join(1, self._op(group=(0, 1)))


class TestWatchdog:
    def test_step_budget(self):
        def prog(ctx):
            peer = 1 - ctx.rank
            for i in range(1000):
                ctx.send(peer, i, words=1)
                yield ctx.recv(source=peer)
            return None

        with pytest.raises(WatchdogError) as exc:
            Machine(2, SPEC, step_budget=50).run(prog)
        assert exc.value.kind == "steps"
        assert exc.value.limit == 50

    def test_time_budget(self):
        def prog(ctx):
            ctx.work(10_000_000)  # ~1 s at delta=0.1us
            return None
            yield  # pragma: no cover

        with pytest.raises(WatchdogError) as exc:
            Machine(1, SPEC, time_budget=1e-3).run(prog)
        assert exc.value.kind == "time"

    def test_budgets_validated(self):
        with pytest.raises(ValueError):
            Machine(1, SPEC, step_budget=0)
        with pytest.raises(ValueError):
            Machine(1, SPEC, time_budget=0.0)

    def test_generous_budget_is_invisible(self):
        def prog(ctx):
            ctx.send(1 - ctx.rank, ctx.rank, words=1)
            msg = yield ctx.recv(source=1 - ctx.rank)
            return msg.payload

        res = Machine(2, SPEC, step_budget=10_000, time_budget=10.0).run(prog)
        assert res.results == [1, 0]


class TestStuckAttribution:
    def test_deadlock_carries_wait_for_graph(self):
        def prog(ctx):
            msg = yield ctx.recv(source=1 - ctx.rank)
            return msg

        with pytest.raises(DeadlockError) as exc:
            Machine(2, SPEC).run(prog)
        assert exc.value.wait_for == {0: (1,), 1: (0,)}
