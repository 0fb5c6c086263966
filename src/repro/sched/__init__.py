"""Layer 2 — node-level process scheduling (paper §III-A2).

Public surface:

* :class:`SchedulerProgram` — hosts process templates on every node.
* :class:`Process` / :class:`FunctionalProcess` / :class:`ProcessContext` /
  :class:`Address` — the process-level programming interface.

The one scheduling rule is round-robin by pid, kept as each node's
``last_pid`` cursor; a per-step message budget is the preemption analogue.
"""

from .process import Address, FunctionalProcess, Process, ProcessContext
from .scheduler import Packet, SchedulerProgram

__all__ = [
    "SchedulerProgram",
    "Packet",
    "Process",
    "FunctionalProcess",
    "ProcessContext",
    "Address",
]
