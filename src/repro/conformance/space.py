"""The fuzzer's configuration space: dimensions, defaults, seeded sampling.

A fuzz point is a :class:`~repro.engine.RunSpec` — one point in the cross
product the conformance oracle differences: topology x workload x mapper x
heuristic x fault schedule x reliability x shard count x checkpoint-resume
point (plus the cheap riders: status threshold, simplification depth, hint
mode, drain protocol, partitioner).  Points run non-strict with a small
step budget (a hung config is a *finding*, not a crash), and they are
never validated as they stand: ``shards`` and ``checkpoint_every`` name
the modes the oracle should *try*, and the oracle validates only the
per-mode spec it derives — which is why a point may carry
``checkpoint_every`` on ``traversal`` or ``shards=3`` with the ``random``
heuristic.  Its ``to_dict()`` is what replayable artifacts and the pinned
corpus under ``tests/conformance/corpus/`` hold.

:func:`sample_configs` is the seeded sampler: one ``random.Random(seed)``
stream drives every draw, so a ``(seed, budget)`` pair names the exact
same config list on every machine — which is what lets CI replay a local
fuzz run bit-for-bit.

``DEFAULT_CONFIG`` is the shrinker's target: delta-debugging moves every
dimension it can toward these values, so a minimized repro reads as
"default everything except ...".
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterator, List, Tuple

from ..engine import RunSpec
from ..errors import ApplicationError
from ..workloads import WORKLOADS

__all__ = [
    "DEFAULT_CONFIG",
    "DIMENSIONS",
    "sample_configs",
]

#: the shrinker's target values, one per dimension
DEFAULT_CONFIG = RunSpec(topology="ring:4", max_steps=5000, strict=False)

#: dimension names in the order the shrinker sweeps them (workload first:
#: collapsing the workload usually deletes the most moving parts at once)
DIMENSIONS: Tuple[str, ...] = (
    "workload",
    "topology",
    "mapper",
    "status",
    "heuristic",
    "simplify",
    "hint_mode",
    "drain",
    "drop",
    "duplicate",
    "reliable",
    "shards",
    "partitioner",
    "checkpoint_every",
    "seed",
)


# -- sampling ---------------------------------------------------------------

#: small machines only: every config must run in milliseconds, because the
#: oracle runs each one several times over
_TOPOLOGIES = (
    "ring:4", "ring:6", "line:5", "star:5",
    "torus2d:3x3", "torus2d:4x4", "torus2d:2x3",
    "grid:3x3", "grid:2x4", "hypercube:3", "full:6", "tree:2x3",
)
_MAPPERS = ("rr", "rr", "lbn", "random", "hint")
_STATUSES = (None, None, None, 4, 16)
_HEURISTICS = ("max_occurrence", "max_occurrence", "first",
               "jeroslow_wang", "moms", "random")
_SIMPLIFY = ("none", "single", "single", "fixpoint")
_HINT_MODES = (None, None, None, "clauses", "vars")
_WORKLOADS = ("sat", "sat", "sat", "fib", "nqueens", "traversal")
_SHARDS = (1, 1, 2, 2, 3, 4)
_PARTITIONERS = ("strip", "strip", "grid", "greedy")
_CKPT_STEPS = (None, None, 5, 10, 20, 40)
_DROPS = (0.02, 0.05, 0.1)
_DUPS = (0.0, 0.02, 0.05)


#: canonical default workload_params of every sampled workload (the
#: shrinker's size target), straight from the workload table
DEFAULT_WORKLOAD_PARAMS: Dict[str, Dict[str, Any]] = {
    name: WORKLOADS[name].default_params for name in dict.fromkeys(_WORKLOADS)
}


def sample_one(rng: random.Random) -> RunSpec:
    """Draw one configuration from the space (all draws from ``rng``)."""
    workload = rng.choice(_WORKLOADS)
    faulty = rng.random() < 0.35
    drop = rng.choice(_DROPS) if faulty else 0.0
    duplicate = rng.choice(_DUPS) if faulty else 0.0
    if drop == 0.0 and duplicate == 0.0:
        faulty = False
    # protected faulty runs dominate (they admit the fault-free comparison);
    # unprotected faults and clean-link protocol runs keep their code paths
    # covered too
    reliable = (rng.random() < 0.75) if faulty else (rng.random() < 0.1)
    return DEFAULT_CONFIG.with_(
        workload=workload,
        workload_params=WORKLOADS[workload].sample_params(rng),
        topology=rng.choice(_TOPOLOGIES),
        mapper=rng.choice(_MAPPERS),
        status=rng.choice(_STATUSES),
        heuristic=rng.choice(_HEURISTICS),
        simplify=rng.choice(_SIMPLIFY),
        hint_mode=rng.choice(_HINT_MODES),
        drain=rng.random() < 0.75,
        seed=rng.randrange(10_000),
        drop=drop,
        duplicate=duplicate,
        reliable=reliable,
        shards=rng.choice(_SHARDS),
        partitioner=rng.choice(_PARTITIONERS),
        checkpoint_every=rng.choice(_CKPT_STEPS),
    )


def sample_configs(seed: int, budget: int) -> Iterator[RunSpec]:
    """Yield ``budget`` configurations, a pure function of ``seed``."""
    if budget < 0:
        raise ApplicationError(f"budget must be >= 0, got {budget}")
    rng = random.Random(seed)
    for _ in range(budget):
        yield sample_one(rng)


def sample_list(seed: int, budget: int) -> List[RunSpec]:
    """Eager form of :func:`sample_configs` (tests, corpus tooling)."""
    return list(sample_configs(seed, budget))
