"""Execution tracing for SPMD runs.

Attach a :class:`Tracer` to a :class:`~repro.machine.engine.Machine` to
record a structured event stream — sends, receives, collectives and phase
switches, each stamped with the acting rank's simulated clock.  Useful for
debugging communication patterns (who talked to whom, when), verifying
schedules (the linear permutation's step structure is plainly visible),
and rendering per-rank phase timelines.

Tracing is opt-in and has zero cost when absent; determinism of the run is
unaffected either way.

Example::

    tracer = Tracer()
    machine = Machine(4, CM5, tracer=tracer)
    machine.run(program)
    print(tracer.summary())
    for ev in tracer.events_of_kind("send"):
        print(ev)
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any

__all__ = ["TraceEvent", "Tracer"]


@dataclass(frozen=True)
class TraceEvent:
    """One traced occurrence.

    ``kind`` is one of ``"send"``, ``"recv"``, ``"phase"``,
    ``"collective"``.  ``time`` is the acting rank's clock *after* the
    event took effect.  ``detail`` is kind-specific:

    * send: ``{"dest": int, "tag": int, "words": int}``
    * recv: ``{"source": int, "tag": int, "words": int}``
    * phase: ``{"name": str}``
    * collective: ``{"op": str, "group_size": int}``
    """

    time: float
    rank: int
    kind: str
    detail: dict

    def to_dict(self) -> dict[str, Any]:
        """Stable, JSON-serializable form: fixed top-level keys, with the
        kind-specific payload under ``"detail"`` (exporter contract)."""
        return {
            "time": self.time,
            "rank": self.rank,
            "kind": self.kind,
            "detail": dict(self.detail),
        }

    def __str__(self) -> str:
        items = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.time * 1e6:10.2f}us] rank {self.rank}: {self.kind} {items}"


class Tracer:
    """Collects :class:`TraceEvent` records during a run.

    A tracer may be reused across runs; :meth:`clear` resets it.  Events
    are appended in simulation order (deterministic), not global time
    order — sort by ``(time, rank)`` for a timeline view, which
    :meth:`sorted_events` does.
    """

    def __init__(self, capture_phases: bool = True):
        self.capture_phases = capture_phases
        self.events: list[TraceEvent] = []

    # ------------------------------------------------------------ recording
    def record(self, time: float, rank: int, kind: str, **detail: Any) -> None:
        self.events.append(TraceEvent(time=time, rank=rank, kind=kind, detail=detail))

    def clear(self) -> None:
        self.events.clear()

    # -------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self.events)

    def events_of_kind(self, kind: str) -> list[TraceEvent]:
        """Events of one kind, in simulation order.

        Safe on an empty tracer (returns ``[]``); a non-string ``kind`` is
        rejected eagerly since it could never match and usually means the
        caller swapped the arguments.
        """
        if not isinstance(kind, str):
            raise TypeError(f"kind must be a string, got {type(kind).__name__}")
        return [e for e in self.events if e.kind == kind]

    def events_of_rank(self, rank: int) -> list[TraceEvent]:
        return [e for e in self.events if e.rank == rank]

    def sorted_events(self) -> list[TraceEvent]:
        return sorted(self.events, key=lambda e: (e.time, e.rank))

    def message_pairs(self) -> list[tuple[int, int, int]]:
        """(source, dest, words) of every traced send, in issue order."""
        return [
            (e.rank, e.detail["dest"], e.detail["words"])
            for e in self.events
            if e.kind == "send"
        ]

    def phase_sequence(self, rank: int) -> list[str]:
        """The phase names rank entered, in order."""
        return [
            e.detail["name"]
            for e in self.events
            if e.kind == "phase" and e.rank == rank
        ]

    # ------------------------------------------------------------ reporting
    def summary(self) -> str:
        if not self.events:
            return "no events recorded"
        counts = Counter(e.kind for e in self.events)
        words = sum(e.detail.get("words", 0) for e in self.events if e.kind == "send")
        parts = [f"{len(self.events)} events"]
        for kind in ("send", "recv", "collective", "phase"):
            if counts.get(kind):
                parts.append(f"{kind}s={counts[kind]}")
        parts.append(f"words={words}")
        return " ".join(parts)

    def communication_matrix(self, nprocs: int):
        """``nprocs x nprocs`` word-count matrix from traced sends."""
        import numpy as np

        m = np.zeros((nprocs, nprocs), dtype=np.int64)
        for src, dst, words in self.message_pairs():
            m[src, dst] += words
        return m

    def to_chrome_trace(self, nprocs: int, run=None) -> list[dict]:
        """Export as Chrome trace-event JSON (load in chrome://tracing or
        https://ui.perfetto.dev).

        Phases become duration events (one track per rank), messages
        become flow arrows from send to receive, collectives become
        instants.  Times are microseconds, as the format requires.

        Delegates to :func:`repro.obs.chrome_trace.build_chrome_trace`;
        pass the :class:`~repro.machine.stats.RunResult` as ``run`` for
        exact per-rank end-of-run clocks (and see
        :func:`repro.obs.chrome_trace.write_chrome_trace` for writing a
        complete trace file).
        """
        from ..obs.chrome_trace import build_chrome_trace

        return build_chrome_trace(self, run=run, nprocs=nprocs)

    def timeline(self, nprocs: int, width: int = 64) -> str:
        """ASCII phase timeline: one lane per rank, one glyph per slot.

        Each phase gets a letter (in order of first appearance); idle time
        before the first event is blank.  Coarse but enough to eyeball
        phase skew across ranks.
        """
        phase_events = [e for e in self.events if e.kind == "phase"]
        if not phase_events:
            return "(no phase events traced)"
        t_max = max(e.time for e in self.events)
        if t_max <= 0:
            t_max = 1.0
        letters: dict[str, str] = {}
        for e in phase_events:
            name = e.detail["name"]
            if name not in letters:
                letters[name] = chr(ord("a") + (len(letters) % 26))
        lanes = []
        for r in range(nprocs):
            spans = [
                (e.time, e.detail["name"])
                for e in phase_events
                if e.rank == r
            ]
            lane = [" "] * width
            for i, (start, name) in enumerate(spans):
                end = spans[i + 1][0] if i + 1 < len(spans) else t_max
                a = min(width - 1, int(start / t_max * width))
                b = min(width, max(a + 1, int(end / t_max * width)))
                for j in range(a, b):
                    lane[j] = letters[name]
            lanes.append(f"r{r:<3d} |" + "".join(lane) + "|")
        legend = "  ".join(f"{v}={k}" for k, v in letters.items())
        return "\n".join(lanes + [legend])
