"""repro — reproduction of "Programming Model to Develop Supercomputer
Combinatorial Solvers" (Tarawneh et al., ICPP Workshops / P2S2 2017).

The package implements the paper's five-layer abstraction stack on a
simulated hyperspace machine:

1. :mod:`repro.netsim`   — message passing (simulated backend, §IV-A)
2. :mod:`repro.sched`    — node-level process scheduling
3. :mod:`repro.mapping`  — ticketed destination-free sends + mesh load balancing
4. :mod:`repro.recursion`— continuation-based fork-join recursion
5. :mod:`repro.apps`     — the registered workloads' applications (DPLL SAT, N-queens, …)

plus :mod:`repro.topology` (tori / hypercubes / …), :mod:`repro.stack` (the
assembled stack and its high-level ``run_recursive`` API),
:mod:`repro.engine` (the declarative :class:`~repro.engine.RunSpec` /
:func:`~repro.engine.execute` front door every entry point funnels
through) and :mod:`repro.bench` (the harness regenerating the paper's
figures).

Quickstart::

    from repro import RunSpec, execute

    run = execute(RunSpec(workload="sumrec", workload_params={"n": 10},
                          topology="torus:8x8", drain=False))
    assert run.result == 55
"""

from . import errors
from .rng import SeedSequence
from .topology import (
    CompleteTree,
    FullyConnected,
    Grid,
    Hypercube,
    Line,
    Ring,
    Star,
    Topology,
    Torus,
    topology_from_spec,
)

__version__ = "1.0.0"

__all__ = [
    "errors",
    "SeedSequence",
    "Topology",
    "Torus",
    "Grid",
    "Ring",
    "Line",
    "Hypercube",
    "FullyConnected",
    "Star",
    "CompleteTree",
    "topology_from_spec",
    "HyperspaceStack",
    "Machine",
    "ShardedMachine",
    "ShardProgramSpec",
    "ReliabilityConfig",
    "RunSpec",
    "RunResult",
    "execute",
    "validate",
    "SpecError",
    "StackCheckpoint",
    "load_checkpoint",
    "save_checkpoint",
    "__version__",
]


def __getattr__(name):  # lazy imports to avoid import cycles at startup
    if name == "HyperspaceStack":
        from .stack import HyperspaceStack

        return HyperspaceStack
    if name in ("RunSpec", "RunResult", "execute", "validate"):
        from . import engine

        return getattr(engine, name)
    if name == "SpecError":
        from .errors import SpecError

        return SpecError
    if name == "Machine":
        from .netsim import Machine

        return Machine
    if name in ("ShardedMachine", "ShardProgramSpec"):
        from . import netsim

        return getattr(netsim, name)
    if name == "ReliabilityConfig":
        from .reliability import ReliabilityConfig

        return ReliabilityConfig
    if name in ("StackCheckpoint", "load_checkpoint", "save_checkpoint"):
        from . import state

        return getattr(state, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
