"""The fuzzer's configuration space: one table, defaults, seeded sampling.

A fuzz point is a :class:`~repro.engine.RunSpec`, and :data:`SPACE` is the
only description of where its fields come from: one row per sampled field
holding the values it is drawn from.  The sampler draws every row, the
shrinker sweeps the rows in table order, and ``RunSpec.describe()`` names
whatever ended up off its default — so a field added to the spec is either
a new row here or a new entry (with its reason) in :data:`UNSAMPLED`;
``tests/conformance/test_space.py`` fails until it is one of the two.

Points run non-strict with a small step budget (a hung config is a
*finding*, not a crash), and ``shards`` and ``checkpoint_every`` only name
the modes the oracle should *try*: the oracle validates the per-mode spec
it derives, so a point may carry ``checkpoint_every`` on ``traversal`` or
``shards=3`` with the ``random`` heuristic.  Every other rule of
:func:`~repro.engine.violations` holds for every point — the sampler
redraws until it does.  A point's ``to_dict()`` is what replayable
artifacts and the pinned corpus under ``tests/conformance/corpus/`` hold.

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

from ..engine import RunSpec, violations
from ..errors import ApplicationError
from ..workloads import WORKLOADS

__all__ = [
    "DEFAULT_CONFIG",
    "DIMENSIONS",
    "SPACE",
    "UNSAMPLED",
    "sample_configs",
]

#: the shrinker's target values, one per dimension
DEFAULT_CONFIG = RunSpec(topology="ring:4", max_steps=5000, strict=False)

#: ``RunSpec`` field -> the values it is drawn from.  A repeated value is a
#: weight; insertion order is the order the shrinker sweeps (workload
#: first: collapsing it usually deletes the most moving parts at once).
#: Small machines only: every point must run in milliseconds, because the
#: oracle runs each one several times over.  ``share_threshold``, non-FIFO
#: ``queue_policy`` and ``queue_capacity`` block sharding by rule, so each
#: is held to 10-20% of points; 64 is the smallest inbox none of the
#: sampled workloads overflows on these machines (an overflow is a typed
#: error the oracle does not compare yet).
SPACE: Dict[str, Tuple[Any, ...]] = {
    "workload": ("sat", "sat", "sat", "fib", "nqueens", "traversal", "sumrec"),
    "topology": (
        "ring:4", "ring:6", "line:5", "star:5",
        "torus2d:3x3", "torus2d:4x4", "torus2d:2x3",
        "grid:3x3", "grid:2x4", "hypercube:3", "full:6", "tree:2x3",
    ),
    "mapper": ("rr", "rr", "lbn", "random", "hint"),
    "status": (None, None, None, 4, 16),
    "heuristic": ("max_occurrence", "max_occurrence", "first",
                  "jeroslow_wang", "moms", "random"),
    "simplify": ("none", "single", "single", "fixpoint"),
    "hint_mode": (None, None, None, "clauses", "vars"),
    "drain": (True, True, True, False),
    "drop": (0.0,) * 7 + (0.02, 0.05, 0.1),
    "duplicate": (0.0,) * 7 + (0.02, 0.05),
    # protected runs dominate: they admit the fault-free and reference
    # comparisons; unprotected faults keep their code path covered too
    "reliable": (False, True, True),
    "retry_limit": (None,) * 5 + (30,),
    "latency": (0, 0, 0, 1, 3),
    "cancellation": (False, False, True),
    "forward_hops": (0, 0, 0, 1, 2),
    "share_threshold": (None,) * 8 + (1, 3),
    "share_load": ("queue", "invocations"),
    "scheduler_budget": (None, None, 1, 2),
    "queue_policy": ("fifo",) * 8 + ("lifo", "random"),
    "queue_capacity": (None,) * 9 + (64,),
    "record_queue_depths": (False, True),
    "sat_sizing": (False, True),
    "trigger_node": (0, 0, 1, 2),
    "shards": (1, 1, 2, 2, 3, 4),
    "checkpoint_every": (None, None, 5, 10, 20, 40),
    "seed": tuple(range(10_000)),
}

#: the fields no row draws, each with the reason it stays out
UNSAMPLED: Dict[str, str] = {
    "version": "schema constant",
    "workload_params": "drawn by the workload record's sample_params",
    "max_steps": "pinned by DEFAULT_CONFIG: a hung point is a finding",
    "strict": "pinned by DEFAULT_CONFIG: a hung point is not a crash",
    "checkpoint_dir": "the oracle captures checkpoints in memory",
    "shard_backend": "pinned per invocation by --shard-backend",
    "partitioner": "one legal value, strip",
}

#: dimension names in the order the shrinker sweeps them
DIMENSIONS: Tuple[str, ...] = tuple(SPACE)


def sample_one(rng: random.Random) -> RunSpec:
    """Draw one configuration from the space (all draws from ``rng``)."""
    while True:
        draws = {name: rng.choice(values) for name, values in SPACE.items()}
        draws["workload_params"] = WORKLOADS[draws["workload"]].sample_params(rng)
        spec = DEFAULT_CONFIG.with_(**draws)
        # shards/checkpoint_every only name modes to try (module docstring)
        if not violations(spec.with_(shards=1, checkpoint_every=None)):
            return spec


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
