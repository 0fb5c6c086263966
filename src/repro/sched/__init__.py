"""Layer 2 — node-level process scheduling (paper §III-A2).

Public surface:

* :class:`SchedulerProgram` — hosts process templates on every node.
* :class:`Process` / :class:`FunctionalProcess` / :class:`ProcessContext` /
  :class:`Address` — the process-level programming interface.
* :class:`RoundRobinPolicy` — the one scheduling rule; a per-step message
  budget is the preemption analogue.
"""

from .policies import RoundRobinPolicy
from .process import Address, FunctionalProcess, Process, ProcessContext
from .scheduler import Packet, SchedulerProgram

__all__ = [
    "SchedulerProgram",
    "Packet",
    "Process",
    "FunctionalProcess",
    "ProcessContext",
    "Address",
    "RoundRobinPolicy",
]
