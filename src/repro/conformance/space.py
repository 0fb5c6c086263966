"""The fuzzer's configuration space: dimensions, defaults, seeded sampling.

A :class:`FuzzConfig` is one point in the cross product the conformance
oracle differences: topology x workload x mapper x heuristic x fault
schedule x reliability x shard count x checkpoint-resume point (plus the
cheap riders: status threshold, simplification depth, hint mode, drain
protocol, partitioner).  Configs are plain JSON-round-trippable data so a
failing one can be written verbatim into a replayable artifact and into
the pinned corpus under ``tests/conformance/corpus/``.

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
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..errors import ApplicationError
from ..workloads import WORKLOADS, cnf_of

__all__ = [
    "DEFAULT_CONFIG",
    "DIMENSIONS",
    "FuzzConfig",
    "build_cnf",
    "sample_configs",
]


@dataclass(frozen=True)
class FuzzConfig:
    """One sampled point of the conformance space (plain, JSON-safe data).

    ``workload_params`` is workload-specific: ``{"n": ...}`` for ``fib``
    and ``nqueens``, nothing for ``traversal``, and for ``sat`` either a
    generator recipe ``{"num_vars", "num_clauses", "formula_seed"}`` or an
    explicit formula ``{"clauses": [[...]], "num_vars": ...}`` (the form
    the shrinker rewrites to so it can delta-debug single clauses).
    """

    workload: str = "fib"
    workload_params: Dict[str, Any] = field(default_factory=lambda: {"n": 5})
    topology: str = "ring:4"
    mapper: str = "rr"
    status: Optional[int] = None
    heuristic: str = "max_occurrence"
    simplify: str = "single"
    hint_mode: Optional[str] = None
    drain: bool = True
    seed: int = 0
    drop: float = 0.0
    duplicate: float = 0.0
    reliable: bool = False
    shards: int = 1
    partitioner: str = "strip"
    ckpt_step: Optional[int] = None
    max_steps: int = 5000

    # -- (de)serialisation ------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-encodable; artifact/corpus payload)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FuzzConfig":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        known = set(cls.__dataclass_fields__)
        extra = sorted(set(data) - known)
        if extra:
            raise ApplicationError(f"unknown FuzzConfig fields: {extra}")
        return cls(**data)

    def with_(self, **changes: Any) -> "FuzzConfig":
        """A copy with ``changes`` applied (shrinker convenience)."""
        return replace(self, **changes)

    def to_runspec(self):
        """The :class:`repro.engine.RunSpec` this config names.

        The config is the fuzz-space *point*; the spec is the executable
        run.  ``ckpt_step`` maps to ``checkpoint_every`` and the oracle
        always runs non-strict (a hung config is a *finding*, not a
        crash).  Shard count / backend are mode-level knobs the oracle
        overrides per execution mode via ``RunSpec.with_``.
        """
        from ..engine import RunSpec

        return RunSpec(
            workload=self.workload,
            workload_params=dict(self.workload_params),
            topology=self.topology,
            mapper=self.mapper,
            status=self.status,
            heuristic=self.heuristic,
            simplify=self.simplify,
            hint_mode=self.hint_mode,
            drain=self.drain,
            seed=self.seed,
            drop=self.drop,
            duplicate=self.duplicate,
            reliable=self.reliable,
            shards=self.shards,
            partitioner=self.partitioner,
            checkpoint_every=self.ckpt_step,
            max_steps=self.max_steps,
            strict=False,
        )

    def describe(self) -> str:
        """One-line human summary (fuzz-loop progress, artifacts)."""
        return self.to_runspec().describe()


#: the shrinker's target values, one per dimension
DEFAULT_CONFIG = FuzzConfig()

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
    "ckpt_step",
    "seed",
)


def build_cnf(config: FuzzConfig):
    """Materialise the config's CNF formula (``sat`` workloads only).

    The conformance-facing name of :func:`repro.engine.cnf_of`: generator
    recipes expand deterministically, explicit clauses are used verbatim.
    """
    return cnf_of(config.workload_params)


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


def sample_one(rng: random.Random) -> FuzzConfig:
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
    return FuzzConfig(
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
        ckpt_step=rng.choice(_CKPT_STEPS),
        max_steps=5000,
    )


def sample_configs(seed: int, budget: int) -> Iterator[FuzzConfig]:
    """Yield ``budget`` configurations, a pure function of ``seed``."""
    if budget < 0:
        raise ApplicationError(f"budget must be >= 0, got {budget}")
    rng = random.Random(seed)
    for _ in range(budget):
        yield sample_one(rng)


def sample_list(seed: int, budget: int) -> List[FuzzConfig]:
    """Eager form of :func:`sample_configs` (tests, corpus tooling)."""
    return list(sample_configs(seed, budget))
