"""Seeded real-process faults for the multiprocessing runtime.

The paper's machine model, and the simulator built on it, assume a
reliable network: every message sent is received exactly once.  Real
gangs of OS processes still die, hang and start late.
:class:`ChaosPlan` (:mod:`repro.faults.chaos`) places such faults —
self-inflicted ``SIGKILL``/``SIGSTOP``, delayed starts, poisoned result
messages — at exact program phases, and
:class:`~repro.runtime.supervisor.GangSupervisor` recovers from them.
See ``docs/fault_tolerance.md``.
"""

from .chaos import ChaosEvent, ChaosPlan

__all__ = ["ChaosEvent", "ChaosPlan"]
