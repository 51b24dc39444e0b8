"""Cross-rank runtime profiling: where does the *host's* time go?

The PR-1 observability layer (:mod:`repro.obs.profiler`) sees simulated
time inside the single-process engine.  This module profiles the
*execution backends* themselves — the quantity ``BENCH_runtime.json``
shows exploding on the process-per-rank backend (fork cost, pickle
volume, queue wait, shm traffic) and that every MpBackend performance PR
is judged against.

The pieces:

* :class:`RuntimeProfiler` — the handle you pass as ``profile=`` to
  :func:`repro.pack` / :func:`repro.unpack` / :func:`repro.ranking` (or
  directly to ``Backend.run_spmd``).  After the run it holds a
  :class:`RunProfile`.
* :class:`RunProfile` — the merged, wall-clock-aligned outcome: one
  span lane per rank plus a gang lane (fork/reap), a ``P x P``
  communication matrix (messages and bytes), and a phase-attribution
  table answering "what fraction of host wall is fork / pickle /
  queue-wait / compute".
* :func:`build_sim_profile` — the simulator-side adapter: the same
  :class:`RunProfile` shape built from engine statistics and the tracer,
  so profiles are comparable across backends.  Comparable, never
  mixable: a profile carries its ``time_domain`` and
  :meth:`RunProfile.assert_comparable` raises
  :class:`~repro.machine.errors.TimeDomainError` on a cross-domain
  comparison, exactly like the run aggregation helpers.

Under the multiprocessing backend each rank records phase spans into a
lock-free per-rank ring buffer living in the run's shared-memory arena
(single writer per rank, read by the parent after the gang finishes —
see ``repro.runtime.mp``), so profiling never adds a lock or a pipe
message to the transport it is measuring.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "RUNTIME_PHASES",
    "RankLane",
    "RunProfile",
    "RuntimeProfiler",
    "build_sim_profile",
]

#: The named phases of the phase-attribution table on the process-per-rank
#: backend.  ``compute`` is the per-lane residual (time a rank spent
#: running program code between its instrumented transport operations), so
#: the attribution always sums to the host wall by construction.
RUNTIME_PHASES = (
    "fork",        # process spawn: gang start -> child interpreter running
    "shm",         # arena setup (parent) + per-rank view/argument build
    "pickle",      # serializing payloads out and deserializing them in (queue)
    "queue_send",  # posting messages onto mailbox queues (queue transport)
    "queue_wait",  # blocked on an empty mailbox queue (queue transport)
    "encode",      # wire codec encode/decode (ring transport)
    "ring_send",   # copying records/slab bytes into the shm ring (ring)
    "ring_wait",   # blocked polling an empty ring / doorbell (ring)
    "collective",  # the collective protocol, including waiting for peers
    "compute",     # residual: program code between transport operations
    "reap",        # result skew + joins + teardown + merge (parent)
)


@dataclass
class RankLane:
    """One rank's profile lane.

    ``spans`` are ``(phase, t0, t1)`` triples on the profile's common
    clock (seconds since the host call began, wall-aligned across ranks
    under the mp backend; simulated seconds under sim).  ``phase_seconds``
    is the per-phase total for this rank, including the derived
    ``compute`` residual.
    """

    rank: int
    t_start: float
    t_ready: float
    t_done: float
    spans: list[tuple[str, float, float]] = field(default_factory=list)
    phase_seconds: dict[str, float] = field(default_factory=dict)

    def span_gaps(self, min_gap: float = 1e-7) -> list[tuple[float, float]]:
        """Uninstrumented intervals in ``[t_ready, t_done]`` — compute time.

        Spans are recorded in time order by a single writer, so one sweep
        suffices.
        """
        gaps: list[tuple[float, float]] = []
        cursor = self.t_ready
        for _, t0, t1 in self.spans:
            if t0 < self.t_ready:
                continue  # fork/shm spans precede the lane body
            if t0 - cursor > min_gap:
                gaps.append((cursor, t0))
            cursor = max(cursor, t1)
        if self.t_done - cursor > min_gap:
            gaps.append((cursor, self.t_done))
        return gaps


@dataclass
class RunProfile:
    """Merged cross-rank profile of one backend run.

    Attributes
    ----------
    time_domain:
        ``"wall"`` (mp: every time below is real host seconds on one
        common clock) or ``"simulated"`` (sim: lane times and
        ``total_seconds`` are cost-model seconds; only
        ``host_wall_seconds`` is real).  Never mix the two —
        :meth:`assert_comparable` enforces it.
    total_seconds:
        the denominator of the attribution table: host wall of the whole
        call under mp, simulated elapsed under sim.
    host_wall_seconds:
        real wall seconds of the host-side call, whatever the domain (so
        a sim profile still records what the call cost the host).
    phase_seconds:
        the attribution table numerators.  Under mp these are the
        :data:`RUNTIME_PHASES`; under sim they are the algorithm's own
        phase labels (``pack.prs.dim0``, ...) plus an ``idle`` residual
        (end-of-run rank skew), so both domains telescope to
        ``total_seconds``.
    comm_msgs / comm_bytes:
        ``P x P`` matrices, rows = senders.  Under mp, bytes are the real
        wire volume — pickled payload bytes on the queue transport,
        encoded wire bytes (codec framing + raw array bytes) on the ring
        transport; under sim, payload words times four.
    transport:
        which mp message transport produced this profile (``"ring"`` or
        ``"queue"``); ``"n/a"`` under sim.
    """

    op: str
    backend: str
    time_domain: str
    nprocs: int
    total_seconds: float
    host_wall_seconds: float
    phase_seconds: dict[str, float]
    lanes: list[RankLane] = field(repr=False, default_factory=list)
    gang_spans: list[tuple[str, float, float]] = field(repr=False, default_factory=list)
    comm_msgs: list[list[int]] = field(repr=False, default_factory=list)
    comm_bytes: list[list[int]] = field(repr=False, default_factory=list)
    sends_per_rank: list[int] = field(repr=False, default_factory=list)
    recvs_per_rank: list[int] = field(repr=False, default_factory=list)
    recv_bytes_per_rank: list[int] = field(repr=False, default_factory=list)
    pickle_bytes_per_rank: list[int] = field(repr=False, default_factory=list)
    collectives_per_rank: list[int] = field(repr=False, default_factory=list)
    dropped_events: int = 0
    spec: str = "?"
    transport: str = "n/a"

    # ----------------------------------------------------------- attribution
    def phase_table(self) -> dict[str, dict[str, float]]:
        """Per-phase seconds and fraction of ``total_seconds``, sorted by
        descending share."""
        total = self.total_seconds or 1.0
        rows = {
            name: {"seconds": s, "fraction": s / total}
            for name, s in self.phase_seconds.items()
        }
        return dict(sorted(rows.items(), key=lambda kv: -kv[1]["seconds"]))

    @property
    def attributed_fraction(self) -> float:
        """Fraction of ``total_seconds`` the attribution table explains."""
        if not self.total_seconds:
            return 1.0
        return sum(self.phase_seconds.values()) / self.total_seconds

    # ------------------------------------------------------------ comparison
    def assert_comparable(self, other: "RunProfile") -> None:
        """Refuse to compare profiles from different time domains.

        Same semantics as :func:`~repro.machine.stats.same_time_domain`:
        a CM-5 simulated clock and a host wall clock are unrelated
        scales, so a cross-domain comparison raises
        :class:`~repro.machine.errors.TimeDomainError` instead of
        producing a number.
        """
        if self.time_domain != other.time_domain:
            from ..machine.errors import TimeDomainError

            raise TimeDomainError([self.time_domain, other.time_domain])

    # ---------------------------------------------------------- comm matrix
    def matrix_dict(self) -> dict[str, Any]:
        """The communication matrices plus the per-rank endpoint totals
        needed to check conservation from the exported file alone."""
        return {
            "nprocs": self.nprocs,
            "time_domain": self.time_domain,
            "transport": self.transport,
            "byte_meaning": (
                "payload words x 4" if self.time_domain != "wall"
                else "encoded wire bytes" if self.transport == "ring"
                else "pickled payload bytes"
            ),
            "msgs": [list(row) for row in self.comm_msgs],
            "bytes": [list(row) for row in self.comm_bytes],
            "sends_per_rank": list(self.sends_per_rank),
            "recvs_per_rank": list(self.recvs_per_rank),
            "recv_bytes_per_rank": list(self.recv_bytes_per_rank),
        }

    def validate_conservation(self) -> None:
        """Check the comm matrix against the per-rank endpoint counts.

        Messages and bytes must be conserved: row ``r`` sums to what rank
        ``r`` reported sending, column ``r`` to what rank ``r`` reported
        receiving.  Raises ``ValueError`` naming the first violation.
        """
        n = self.nprocs
        for r in range(n):
            row = sum(self.comm_msgs[r])
            if row != self.sends_per_rank[r]:
                raise ValueError(
                    f"comm matrix row {r} sums to {row} messages but rank "
                    f"{r} recorded {self.sends_per_rank[r]} sends"
                )
            col = sum(self.comm_msgs[q][r] for q in range(n))
            if col != self.recvs_per_rank[r]:
                raise ValueError(
                    f"comm matrix column {r} sums to {col} messages but "
                    f"rank {r} recorded {self.recvs_per_rank[r]} receives"
                )
            if self.recv_bytes_per_rank:
                col_b = sum(self.comm_bytes[q][r] for q in range(n))
                if col_b != self.recv_bytes_per_rank[r]:
                    raise ValueError(
                        f"comm matrix column {r} sums to {col_b} bytes but "
                        f"rank {r} received {self.recv_bytes_per_rank[r]}"
                    )

    # ---------------------------------------------------------- chrome trace
    def to_chrome_trace(self, pid: int = 0) -> list[dict]:
        """``traceEvents`` with one lane per rank, plus a gang lane when
        the run recorded gang spans (mp and supervised; never sim).

        The gang lane (host-side fork/collect/reap spans) sorts above the
        rank lanes; per-rank compute residuals are emitted as explicit
        ``compute`` slices filling the gaps between instrumented spans.
        """
        us = 1e6
        gang_tid = self.nprocs
        events: list[dict] = [{
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": f"repro {self.backend} backend "
                             f"({self.time_domain} clock)"},
        }]
        if self.gang_spans:
            events += [{
                "name": "thread_name", "ph": "M", "pid": pid,
                "tid": gang_tid, "args": {"name": "gang (host)"},
            }, {
                "name": "thread_sort_index", "ph": "M", "pid": pid,
                "tid": gang_tid, "args": {"sort_index": -1},
            }]
        for lane in self.lanes:
            events.append({
                "name": "thread_name", "ph": "M", "pid": pid,
                "tid": lane.rank, "args": {"name": f"rank {lane.rank}"},
            })
            events.append({
                "name": "thread_sort_index", "ph": "M", "pid": pid,
                "tid": lane.rank, "args": {"sort_index": lane.rank},
            })
        for name, t0, t1 in self.gang_spans:
            events.append({
                "name": name, "cat": "gang", "ph": "X", "pid": pid,
                "tid": gang_tid, "ts": t0 * us,
                "dur": max(t1 - t0, 0.0) * us,
            })
        for lane in self.lanes:
            for name, t0, t1 in lane.spans:
                events.append({
                    "name": name, "cat": "runtime", "ph": "X", "pid": pid,
                    "tid": lane.rank, "ts": t0 * us,
                    "dur": max(t1 - t0, 0.0) * us,
                })
            if self.time_domain == "wall":
                for t0, t1 in lane.span_gaps():
                    events.append({
                        "name": "compute", "cat": "runtime", "ph": "X",
                        "pid": pid, "tid": lane.rank, "ts": t0 * us,
                        "dur": (t1 - t0) * us,
                    })
        return events

    def write_chrome_trace(self, path) -> int:
        """Export the merged per-rank trace; returns the event count."""
        from .chrome_trace import trace_metadata, validate_chrome_trace

        events = self.to_chrome_trace()
        validate_chrome_trace(events)
        doc = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": trace_metadata(self.time_domain, {
                "op": self.op,
                "backend": self.backend,
                "nprocs": self.nprocs,
                "host_wall_ms": self.host_wall_seconds * 1e3,
                "dropped_events": self.dropped_events,
            }),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return len(events)

    # -------------------------------------------------------- serialization
    def to_dict(self) -> dict[str, Any]:
        return {
            "op": self.op,
            "backend": self.backend,
            "spec": self.spec,
            "time_domain": self.time_domain,
            "transport": self.transport,
            "nprocs": self.nprocs,
            "total_seconds": self.total_seconds,
            "host_wall_seconds": self.host_wall_seconds,
            "attributed_fraction": self.attributed_fraction,
            "phase_table": self.phase_table(),
            "comm_matrix": self.matrix_dict(),
            "pickle_bytes_per_rank": list(self.pickle_bytes_per_rank),
            "collectives_per_rank": list(self.collectives_per_rank),
            "dropped_events": self.dropped_events,
            "gang_spans": [list(s) for s in self.gang_spans],
        }

    def to_json(self, path=None, indent: int = 2) -> str:
        text = json.dumps(self.to_dict(), indent=indent, sort_keys=True)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text

    # ------------------------------------------------------------- reporting
    def summary(self) -> str:
        unit = "host wall" if self.time_domain == "wall" else "simulated"
        via = f" transport={self.transport}" if self.transport != "n/a" else ""
        lines = [
            f"{self.op} on backend={self.backend}:{via} ranks={self.nprocs} "
            f"{unit} {self.total_seconds * 1e3:.3f} ms "
            f"(attributed {self.attributed_fraction * 100:.1f}%)",
        ]
        table = self.phase_table()
        width = max(map(len, table), default=0)
        for name, row in table.items():
            lines.append(
                f"  {name:<{width}s} {row['seconds'] * 1e3:10.3f} ms "
                f"{row['fraction'] * 100:6.1f}%"
            )
        total_msgs = sum(map(sum, self.comm_msgs))
        total_bytes = sum(map(sum, self.comm_bytes))
        wire = "encoded" if self.transport == "ring" else "pickled"
        lines.append(
            f"  comm: {total_msgs} messages, {total_bytes} bytes"
            + (f", {sum(self.pickle_bytes_per_rank)} {wire} payload bytes"
               if self.time_domain == "wall" else "")
        )
        return "\n".join(lines)


class RuntimeProfiler:
    """Request a cross-rank runtime profile from a backend run.

    Pass as ``profile=`` to :func:`repro.pack` / :func:`repro.unpack` /
    :func:`repro.ranking` (or to ``Backend.run_spmd``)::

        prof = RuntimeProfiler()
        repro.pack(a, m, grid=8, backend="mp", profile=prof)
        print(prof.profile.summary())
        prof.profile.write_chrome_trace("pack.mp.trace.json")

    ``ring_capacity`` bounds the per-rank span ring buffer under the mp
    backend; overflowing spans are dropped from the *trace* (counted in
    :attr:`RunProfile.dropped_events`) but still accumulated into the
    attribution table, which is kept exact separately.
    """

    def __init__(self, ring_capacity: int = 8192):
        if ring_capacity < 16:
            raise ValueError(f"ring_capacity must be >= 16, got {ring_capacity}")
        self.ring_capacity = ring_capacity
        self.profile: RunProfile | None = None

    def finish(self, op: str, spec: str = "?") -> RunProfile:
        """Label the backend-built profile with what ran (host API hook)."""
        if self.profile is None:
            raise ValueError("no profile recorded; run with profile= first")
        self.profile.op = op
        self.profile.spec = spec
        return self.profile

    def __repr__(self) -> str:
        state = "pending" if self.profile is None else self.profile.summary().splitlines()[0]
        return f"RuntimeProfiler({state})"


def build_sim_profile(
    run,
    tracer,
    host_wall: float,
    nprocs: int,
) -> RunProfile:
    """Adapt a simulator run to the :class:`RunProfile` shape.

    Lanes are the algorithm's own phase spans on the simulated clock
    (reconstructed from the tracer exactly like the Chrome exporter);
    the comm matrix comes from traced sends with bytes = words * 4.  The
    attribution table holds the per-phase *mean over ranks* plus an
    ``idle`` residual (end-of-run skew: ranks that finish before the
    slowest one).  Every simulated clock advance is attributed to the
    rank's current phase, so per-rank phase totals sum to that rank's
    final clock and the table telescopes exactly to ``run.elapsed``.
    """
    lanes: list[RankLane] = []
    for r in range(nprocs):
        st = run.stats[r]
        spans = [
            (e.detail["name"], e.time)
            for e in tracer.events
            if e.kind == "phase" and e.rank == r
        ]
        if not spans or spans[0][1] > 0:
            from ..machine.stats import DEFAULT_PHASE

            spans.insert(0, (DEFAULT_PHASE, 0.0))
        lane_spans = []
        for i, (name, t0) in enumerate(spans):
            t1 = spans[i + 1][1] if i + 1 < len(spans) else st.clock
            lane_spans.append((name, t0, t1))
        lanes.append(RankLane(
            rank=r, t_start=0.0, t_ready=0.0, t_done=st.clock,
            spans=lane_spans,
            phase_seconds=dict(st.phase_times),
        ))

    msgs = [[0] * nprocs for _ in range(nprocs)]
    nbytes = [[0] * nprocs for _ in range(nprocs)]
    for src, dst, words in tracer.message_pairs():
        msgs[src][dst] += 1
        nbytes[src][dst] += words * 4

    phase_seconds: dict[str, float] = {}
    for st in run.stats:
        for name, t in st.phase_times.items():
            phase_seconds[name] = phase_seconds.get(name, 0.0) + t / nprocs
    idle = run.elapsed - sum(phase_seconds.values())
    if idle > 0.0:
        phase_seconds["idle"] = idle
    return RunProfile(
        op="run",
        backend="sim",
        time_domain="simulated",
        nprocs=nprocs,
        total_seconds=run.elapsed,
        host_wall_seconds=host_wall,
        phase_seconds=phase_seconds,
        lanes=lanes,
        gang_spans=[],
        comm_msgs=msgs,
        comm_bytes=nbytes,
        sends_per_rank=[s.sends for s in run.stats],
        recvs_per_rank=[s.recvs for s in run.stats],
        recv_bytes_per_rank=[s.words_received * 4 for s in run.stats],
        pickle_bytes_per_rank=[0] * nprocs,
        collectives_per_rank=[s.ctrl_ops for s in run.stats],
    )
