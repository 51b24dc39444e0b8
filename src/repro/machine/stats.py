"""Per-processor and per-run statistics.

The simulator's observable output is time.  Each rank owns a local clock
that advances under three influences: local work (``delta * ops``),
message costs (``tau + mu * words`` on the sender; receivers wait for the
arrival time), and collective synchronization (clocks meet at the group
maximum).  Because the algorithms in this library are loosely synchronous,
the *reported* time of a phase is the maximum over ranks of that phase's
clock advance — exactly what a wall clock around the phase would measure on
a real machine.

Phases are named hierarchically with dot-separated components
(``"pack.ranking.scan"``).  :meth:`RunResult.phase_time` accepts a prefix,
so ``phase_time("pack.ranking")`` aggregates every sub-phase under it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from .errors import PhaseError, TimeDomainError

__all__ = [
    "ProcStats",
    "RunResult",
    "DEFAULT_PHASE",
    "TIME_DOMAINS",
    "same_time_domain",
    "stats_from_snapshot",
]

#: Phase used before a program sets one explicitly.
DEFAULT_PHASE = "unphased"

#: Legal values of :attr:`RunResult.time_domain`.
TIME_DOMAINS = ("simulated", "wall")


class ProcStats:
    """Mutable statistics for one simulated processor.

    Attributes
    ----------
    rank:
        processor id.
    clock:
        current local time, seconds.
    phase:
        current phase label; clock advances are attributed to it.
    phase_times:
        seconds of clock advance per phase label.
    local_ops:
        total units of local computation charged.
    sends / recvs:
        point-to-point message counts.
    words_sent / words_received:
        point-to-point traffic in words.
    ctrl_ops:
        number of collective (control-network) operations joined.
    idle_time:
        seconds spent waiting in receives and collectives past the point
        where this rank was ready.  Included in ``clock`` and in
        ``phase_times`` (a wall clock cannot tell waiting from working) but
        tracked separately for load-balance diagnostics.
    """

    __slots__ = (
        "rank",
        "clock",
        "phase",
        "phase_times",
        "local_ops",
        "sends",
        "recvs",
        "words_sent",
        "words_received",
        "ctrl_ops",
        "idle_time",
        "phase_ops",
    )

    def __init__(self, rank: int):
        self.rank = rank
        self.clock = 0.0
        self.phase = DEFAULT_PHASE
        self.phase_times: dict[str, float] = defaultdict(float)
        self.phase_ops: dict[str, float] = defaultdict(float)
        self.local_ops = 0.0
        self.sends = 0
        self.recvs = 0
        self.words_sent = 0
        self.words_received = 0
        self.ctrl_ops = 0
        self.idle_time = 0.0

    # ------------------------------------------------------------- mutation
    def set_phase(self, name: str) -> None:
        if not name:
            raise PhaseError(f"rank {self.rank}: empty phase name")
        self.phase = name

    def advance(self, seconds: float) -> None:
        """Advance the clock, attributing the time to the current phase."""
        if seconds < 0:
            raise PhaseError(f"rank {self.rank}: negative time advance {seconds}")
        self.clock += seconds
        self.phase_times[self.phase] += seconds

    def advance_to(self, when: float) -> None:
        """Advance the clock to absolute time ``when``, counting the gap as idle.

        No-op if ``when`` is in the past (the message was already waiting).
        """
        if when > self.clock:
            gap = when - self.clock
            self.idle_time += gap
            self.advance(gap)

    def charge_ops(self, ops: float) -> None:
        self.local_ops += ops
        self.phase_ops[self.phase] += ops

    # ------------------------------------------------------------ snapshots
    def snapshot(self) -> dict[str, Any]:
        return {
            "rank": self.rank,
            "clock": self.clock,
            "local_ops": self.local_ops,
            "sends": self.sends,
            "recvs": self.recvs,
            "words_sent": self.words_sent,
            "words_received": self.words_received,
            "ctrl_ops": self.ctrl_ops,
            "idle_time": self.idle_time,
            "phase_times": dict(self.phase_times),
            "phase_ops": dict(self.phase_ops),
        }

    def __repr__(self) -> str:
        return (
            f"ProcStats(rank={self.rank}, clock={self.clock:.6f}, "
            f"ops={self.local_ops:.0f}, sent={self.words_sent}w/{self.sends}m)"
        )


@dataclass
class RunResult:
    """Outcome of one SPMD run.

    Attributes
    ----------
    results:
        per-rank return values of the program generators.
    stats:
        per-rank :class:`ProcStats`.
    time_domain:
        what kind of clock the per-rank times are measured on:
        ``"simulated"`` (the spec's two-level cost model — the simulator
        backend) or ``"wall"`` (real host seconds — the multiprocessing
        backend).  Aggregation helpers refuse to combine runs from
        different domains (:class:`~repro.machine.errors.TimeDomainError`).
    """

    results: list[Any]
    stats: list[ProcStats]
    time_domain: str = "simulated"

    def __post_init__(self) -> None:
        if self.time_domain not in TIME_DOMAINS:
            raise ValueError(
                f"time_domain must be one of {TIME_DOMAINS}, "
                f"got {self.time_domain!r}"
            )

    # -------------------------------------------------------------- timing
    @property
    def nprocs(self) -> int:
        return len(self.stats)

    @property
    def elapsed(self) -> float:
        """Simulated wall-clock time of the whole run (max final clock)."""
        return max((s.clock for s in self.stats), default=0.0)

    def phase_time(self, prefix: str) -> float:
        """Wall time of a phase: max over ranks of the per-rank phase total.

        ``prefix`` selects every phase equal to it or nested below it
        (``"a.b"`` matches ``"a.b"`` and ``"a.b.c"`` but not ``"a.bc"``).
        A prefix that matches no recorded phase raises
        :class:`~repro.machine.errors.PhaseError` naming the known
        prefixes — silently returning 0.0 hid typos like
        ``phase_time("pack.rank")``.
        """
        best = 0.0
        matched = False
        for s in self.stats:
            total = 0.0
            for name, t in s.phase_times.items():
                if name == prefix or name.startswith(prefix + "."):
                    total += t
                    matched = True
            best = max(best, total)
        if not matched:
            known = sorted(
                {p for name in self.phase_names()
                 for p in _prefixes_of(name)}
            )
            raise PhaseError(
                f"unknown phase prefix {prefix!r}; known prefixes: "
                f"{', '.join(known) if known else '(none recorded)'}"
            )
        return best

    def phase_names(self) -> list[str]:
        names: set[str] = set()
        for s in self.stats:
            names.update(s.phase_times)
        return sorted(names)

    def phase_breakdown(self) -> dict[str, float]:
        """Wall time for every leaf phase name observed in the run."""
        return {name: self.phase_time(name) for name in self.phase_names()}

    # ------------------------------------------------------------- traffic
    @property
    def total_words(self) -> int:
        return sum(s.words_sent for s in self.stats)

    @property
    def total_messages(self) -> int:
        return sum(s.sends for s in self.stats)

    @property
    def total_ops(self) -> float:
        return sum(s.local_ops for s in self.stats)

    def max_words_sent(self) -> int:
        return max((s.words_sent for s in self.stats), default=0)

    def load_imbalance(self) -> float:
        """Max/mean ratio of per-rank local op counts (1.0 = perfect)."""
        ops = [s.local_ops for s in self.stats]
        mean = sum(ops) / len(ops) if ops else 0.0
        if mean == 0:
            return 1.0
        return max(ops) / mean

    # ------------------------------------------------------------ reporting
    def summary(self) -> str:
        lines = [
            f"ranks={self.nprocs} elapsed={self.elapsed * 1e3:.3f} ms "
            f"msgs={self.total_messages} words={self.total_words} "
            f"ops={self.total_ops:.0f}",
        ]
        for name, t in sorted(self.phase_breakdown().items()):
            lines.append(f"  {name:<40s} {t * 1e3:10.3f} ms")
        return "\n".join(lines)


def _prefixes_of(name: str) -> list[str]:
    """Every dot-separated prefix of a phase name, including itself."""
    parts = name.split(".")
    return [".".join(parts[: i + 1]) for i in range(len(parts))]


def same_time_domain(runs: Iterable[RunResult]) -> str:
    """The shared time domain of several runs.

    Raises :class:`~repro.machine.errors.TimeDomainError` when the runs
    disagree — adding a simulated CM-5 clock to a measured wall clock is
    always a bug, never a number.
    """
    domains = {run.time_domain for run in runs}
    if not domains:
        return "simulated"
    if len(domains) > 1:
        raise TimeDomainError(domains)
    return domains.pop()


def stats_from_snapshot(snapshot: Mapping[str, Any]) -> ProcStats:
    """Rebuild a :class:`ProcStats` from a :meth:`ProcStats.snapshot` dict.

    Used by execution backends that run ranks in other processes and ship
    their statistics home as plain dicts.
    """
    st = ProcStats(int(snapshot["rank"]))
    st.clock = float(snapshot.get("clock", 0.0))
    st.local_ops = float(snapshot.get("local_ops", 0.0))
    st.sends = int(snapshot.get("sends", 0))
    st.recvs = int(snapshot.get("recvs", 0))
    st.words_sent = int(snapshot.get("words_sent", 0))
    st.words_received = int(snapshot.get("words_received", 0))
    st.ctrl_ops = int(snapshot.get("ctrl_ops", 0))
    st.idle_time = float(snapshot.get("idle_time", 0.0))
    for name, t in dict(snapshot.get("phase_times", {})).items():
        st.phase_times[name] = float(t)
    for name, ops in dict(snapshot.get("phase_ops", {})).items():
        st.phase_ops[name] = float(ops)
    return st


def merge_phase_tables(tables: Iterable[Mapping[str, float]]) -> dict[str, float]:
    """Element-wise max of several phase tables (utility for reports)."""
    out: dict[str, float] = defaultdict(float)
    for table in tables:
        for name, t in table.items():
            out[name] = max(out[name], t)
    return dict(out)
