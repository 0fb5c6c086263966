"""Mode adapters: run one fuzz point in one execution mode.

Every adapter returns a :class:`RunOutcome` with the four comparands the
oracle differences across modes:

* ``verdict`` — plain data: the solver's answer (model / value /
  placement / visited set), or ``("incomplete",)`` when the step budget
  ran out first;
* ``schedule_digest`` — :func:`~repro.netsim.digest.canonical_digest` of
  the run's observable schedule (verdict + step count + computation time
  + send/deliver/drop totals + the per-step queue-depth series);
* ``state_digest`` — :func:`~repro.state.state_digest_of` over the final
  semantic layer states (netsim/sched/reliability).  The telemetry layer
  is digested separately as ``counters``: its counter values must match
  across modes, but gauge *last-seen* values depend on event-relay
  interleaving (the documented sharded relaxation), so they are excluded
  here exactly as in ``tests/test_sharded_stack.py``;
* ``counters`` — the filtered :class:`~repro.telemetry.metrics.MetricsSubscriber`
  registry (shard-only partition counters removed, gauge ``last`` popped).

The serial adapter doubles as the checkpoint producer: when the config
carries a ``checkpoint_every`` it captures the in-flight checkpoints so the
resume adapter can restart from the first one and the oracle can demand
the resumed run land on the identical final outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..engine import INCOMPLETE, RunSpec, checkpointable, execute, shardable
from ..telemetry import TelemetryBus
from ..telemetry.metrics import MetricsSubscriber
from ..topology import topology_from_spec
from ..workloads import WORKLOADS

__all__ = [
    "RunOutcome",
    "SHARD_ONLY_METRICS",
    "applicable_modes",
    "comparable_metrics",
    "run_mode",
]

#: the sharded coordinator reports its partition through these counters; a
#: serial run has no partition, so parity comparisons must ignore them
SHARD_ONLY_METRICS = ("l1.shard_count", "l1.shard_edge_cut")


@dataclass
class RunOutcome:
    """Everything the oracle compares about one run of one mode."""

    mode: str
    completed: bool
    verdict: Any
    schedule_digest: str
    state_digest: Optional[str]
    counters: Dict[str, Dict[str, Any]]
    #: in-flight checkpoints (serial baseline only, when ckpt applies)
    checkpoints: List[Any] = field(default_factory=list)

    def coarse_verdict(self) -> Any:
        """The schedule-independent part of the verdict.

        Full verdicts embed schedule-dependent choices (which model, which
        placement); runs that legitimately take different schedules — the
        fault-free baseline of a protected faulty run, the sequential
        reference — can only be held to this.
        """
        if self.verdict == INCOMPLETE or not isinstance(self.verdict, dict):
            return self.verdict
        return WORKLOADS[self.verdict["kind"]].coarse(self.verdict)


# -- applicability ----------------------------------------------------------


def applicable_modes(config: RunSpec) -> List[str]:
    """The execution modes the oracle will run for ``config``.

    ``serial`` is always first (it is the baseline the others are compared
    against).  ``fault_free`` and ``reference`` are comparison runs, not
    alternate backends: the former re-runs a reliability-protected faulty
    config on clean links, the latter consults the sequential solver.
    Whether ``sharded`` and ``resume`` apply is the engine's capability
    table's call — the same rules that reject the combination with an
    exit-2 error in ``repro solve``.
    """
    modes = ["serial"]
    if config.shards > 1 and shardable(config):
        modes.append("sharded")
    if config.checkpoint_every is not None and checkpointable(config):
        modes.append("resume")
    faulty = config.drop > 0.0 or config.duplicate > 0.0
    if faulty and config.reliable:
        modes.append("fault_free")
    if not faulty or config.reliable:
        modes.append("reference")
    return modes


# -- shared plumbing --------------------------------------------------------


def comparable_metrics(sub: MetricsSubscriber) -> Dict[str, Dict[str, Any]]:
    """What a sharded run's metrics must share with its serial twin's."""
    metrics: Dict[str, Dict[str, Any]] = {}
    for name, entry in sub.as_dict().items():
        if name in SHARD_ONLY_METRICS:
            continue
        if entry["kind"] == "gauge":
            # the documented relaxation: worker events are relayed per
            # worker, so the last ``l2.run_queue`` sample need not be the
            # serial run's; peak, low and updates must match
            entry = {k: v for k, v in entry.items() if k != "value"}
        metrics[name] = entry
    return metrics


# -- the sequential references ---------------------------------------------


def check_reference(config: RunSpec, outcome: RunOutcome) -> Optional[str]:
    """Compare a completed clean/protected run against ground truth.

    Returns an error string on mismatch, None when the run agrees (or no
    reference applies).  The workload's record supplies the sequential
    reference and the witness check: a SAT model must satisfy the
    formula, an N-queens placement must be valid, a traversal must reach
    every node.
    """
    if not outcome.completed:
        return None
    return WORKLOADS[config.workload].verify(
        config.workload_params, topology_from_spec(config.topology), outcome.verdict
    )


# -- the adapter entry point ------------------------------------------------


def run_mode(
    config: RunSpec,
    mode: str,
    *,
    shard_backend: str = "inline",
    baseline: Optional[RunOutcome] = None,
) -> Optional[RunOutcome]:
    """Run ``config`` in one execution mode; None when the mode is moot.

    ``resume`` needs the serial ``baseline`` outcome (it restarts from the
    first checkpoint that run captured; a run that finished before the
    first checkpoint boundary yields no checkpoint, and the mode returns
    None).  ``fault_free`` reruns the config serially on clean links.

    The mode pins the backend knobs on top of the config and decides
    whether this run *produces* checkpoints: only the serial baseline
    captures them, and only when the capability
    rules allow it (a spec carrying ``checkpoint_every`` for an
    uncheckpointable workload is rejected by
    :func:`~repro.engine.validate`, by design).
    """
    shards, capture, resume_from = 1, False, None
    if mode == "serial":
        capture = config.checkpoint_every is not None and checkpointable(config)
    elif mode == "sharded":
        shards = config.shards
    elif mode == "resume":
        if baseline is None or not baseline.checkpoints:
            return None
        resume_from = baseline.checkpoints[0]
    elif mode == "fault_free":
        config = config.with_(
            drop=0.0, duplicate=0.0, reliable=False, retry_limit=None
        )
    else:
        raise ValueError(f"unknown execution mode {mode!r}")
    spec = config.with_(
        shards=shards,
        shard_backend=shard_backend,
        checkpoint_every=config.checkpoint_every if capture else None,
    )
    bus = TelemetryBus()
    sub = bus.attach(MetricsSubscriber())
    checkpoints: List[Any] = []
    run = execute(
        spec,
        telemetry=bus,
        checkpoint_sink=checkpoints.append if capture else None,
        resume_from=resume_from,
        want_state_digest=True,
    )
    return RunOutcome(
        mode=mode,
        completed=run.completed,
        verdict=run.verdict,
        schedule_digest=run.schedule_digest(),
        state_digest=run.semantic_digest,
        counters=comparable_metrics(sub),
        checkpoints=checkpoints,
    )
