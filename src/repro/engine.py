"""The run engine: one declarative spec, one validator, one executor.

The paper's central claim is layer substitutability — the same solver
program runs unchanged across interconnects, mappers and execution
backends.  This module is where that claim becomes a single funnel:

* :class:`RunSpec` — a frozen, JSON-round-trippable description of one
  run: workload + topology + mapper/status + heuristic + fault schedule
  + reliability + checkpoint policy + shard backend, with a schema
  version.  Anything a run needs that *cannot* be JSON (a pre-built
  topology object, a telemetry bus, a checkpoint sink callable) is a
  runtime attachment passed to :func:`execute` instead.
* :func:`validate` — the one capability-rule table.  The CLI, the
  conformance fuzzer and every library caller reject a bad configuration
  with the *same* message, because they all reject it here.
* :func:`execute` — the only place in the library where a
  :class:`~repro.stack.HyperspaceStack` is assembled, and one sequence
  for every workload: build, inject, run, collect, digest, close.  What
  differs between workloads is looked up in :mod:`repro.workloads`.
  ``tools/check_entrypoints.py`` enforces this in CI.

Checkpoint headers embed the canonical spec JSON (``meta["runspec"]``),
so ``repro solve --resume`` rebuilds the original run through the same
funnel it was started from — see ``docs/runspec.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from .errors import SpecError, TopologyError
from .netsim.digest import canonical_digest
from .netsim.sharded import FIFO_ONLY_MSG
from .stack import HyperspaceStack
from .state import state_digest_of
from .topology import Topology, topology_from_spec
from .workloads import WORKLOADS, cnf_of

__all__ = [
    "INCOMPLETE",
    "RULES",
    "RunResult",
    "RunSpec",
    "SCHEMA_VERSION",
    "SpecError",
    "checkpoint_blockers",
    "checkpointable",
    "cnf_of",
    "execute",
    "schedule_digest",
    "shard_blockers",
    "shardable",
    "validate",
    "violations",
]

#: the RunSpec wire-format version; bump when a field changes meaning
SCHEMA_VERSION = 1

#: verdict marker for runs that exhausted max_steps without an answer
INCOMPLETE: Tuple[str] = ("incomplete",)

_SHARE_LOADS = ("queue", "invocations")
_QUEUE_POLICIES = ("fifo", "lifo", "random")
#: one legal value; the field goes with shard_backend (ROADMAP items 3, 4)
_PARTITIONER_NAMES = ("strip",)
_SHARD_BACKENDS = ("auto", "process", "inline")
#: what ``RunSpec.describe()`` leads with, value only
_DESCRIBED_FIRST = ("workload", "workload_params", "topology")


# -- the spec ---------------------------------------------------------------


@dataclass(frozen=True)
class RunSpec:
    """One run of one workload on one simulated machine, as plain data.

    Every field is JSON-safe; :meth:`to_dict`/:meth:`from_dict` round-trip
    losslessly and reject unknown fields, so a spec written into a
    checkpoint header or a conformance artifact today is still readable
    (or cleanly refused, by version) tomorrow.  See ``docs/runspec.md``
    for the field table and the validation rules.
    """

    version: int = SCHEMA_VERSION
    # -- workload (layer 5)
    workload: str = "fib"
    workload_params: Dict[str, Any] = field(default_factory=lambda: {"n": 5})
    # -- machine (layer 1) + placement (layer 3)
    topology: Optional[str] = None
    mapper: str = "rr"
    status: Optional[int] = None
    # -- recursion/scheduling knobs (layers 2-4)
    cancellation: bool = False
    forward_hops: int = 0
    share_threshold: Optional[int] = None
    share_load: str = "queue"
    scheduler_budget: Optional[int] = None
    queue_policy: str = "fifo"
    queue_capacity: Optional[int] = None
    record_queue_depths: bool = False
    # -- SAT solver knobs (ignored by other workloads)
    heuristic: str = "max_occurrence"
    simplify: str = "single"
    hint_mode: Optional[str] = None
    # -- run protocol
    seed: int = 0
    trigger_node: int = 0
    max_steps: int = 1_000_000
    drain: bool = True
    strict: bool = True
    # -- fault schedule + layer-1.5 reliability
    latency: int = 0
    drop: float = 0.0
    duplicate: float = 0.0
    reliable: bool = False
    retry_limit: Optional[int] = None
    # -- checkpoint policy
    checkpoint_every: Optional[int] = None
    checkpoint_dir: Optional[str] = None
    # -- sharded backend
    shards: int = 1
    partitioner: str = "strip"
    shard_backend: str = "auto"
    # -- bandwidth accounting (SAT envelope sizer)
    sat_sizing: bool = False

    # -- (de)serialisation ------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-encodable; checkpoint-header payload)."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["workload_params"] = dict(self.workload_params)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunSpec":
        """Inverse of :meth:`to_dict`; unknown fields and unsupported
        schema versions are rejected (missing fields take defaults)."""
        if not isinstance(data, dict):
            raise SpecError(f"RunSpec data must be a dict, got {type(data).__name__}")
        known = set(cls.__dataclass_fields__)
        extra = sorted(set(data) - known)
        if extra:
            raise SpecError(f"unknown RunSpec fields: {extra}")
        version = data.get("version", SCHEMA_VERSION)
        if not isinstance(version, int) or not 1 <= version <= SCHEMA_VERSION:
            raise SpecError(
                f"unsupported RunSpec schema version {version!r} "
                f"(this build understands 1..{SCHEMA_VERSION})"
            )
        return cls(**data)

    def to_json(self, indent: Optional[int] = None) -> str:
        """JSON form; ``from_json(to_json(spec)) == spec``."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"RunSpec JSON does not parse: {exc}") from exc
        return cls.from_dict(data)

    def canonical_json(self) -> str:
        """Minimal sorted-key JSON: equal specs, equal bytes."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        """Stable hash of the canonical form (spec identity for parity tests)."""
        return canonical_digest(self.to_dict())

    def with_(self, **changes: Any) -> "RunSpec":
        """A copy with ``changes`` applied."""
        unknown = sorted(set(changes) - set(self.__dataclass_fields__))
        if unknown:
            raise SpecError(f"unknown RunSpec fields: {unknown}")
        return replace(self, **changes)

    def describe(self) -> str:
        """One-line human summary (fuzz-loop progress, artifacts, errors):
        workload, params, topology, then every field off its default."""
        parts = [f"{self.workload}{self.workload_params}",
                 self.topology or "<topology object>"]
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name not in _DESCRIBED_FIRST and value != f.default:
                parts.append(f"{f.name}={value}")
        return " ".join(parts)


# -- the capability-rule table ----------------------------------------------

#: why work sharing cannot run sharded (mirrors the HyperspaceStack guard)
_SHARE_SHARD_MSG = (
    "work sharing (share_threshold) reads live inbox depths and "
    "is not supported with shards > 1"
)


def _ask_workload(spec: "RunSpec", question: str, about: Any = None) -> Optional[str]:
    """Put one of the per-workload questions to the spec's record (about
    the spec itself unless ``about`` says otherwise).

    An unknown workload has no record and so no answer: the ``workload``
    rule is what reports it.
    """
    record = WORKLOADS.get(spec.workload)
    if record is None:
        return None
    return getattr(record, question)(spec if about is None else about)


def checkpoint_blockers(spec: RunSpec) -> List[str]:
    """Why this spec could not run under checkpoint/resume ([] = it can)."""
    reason = _ask_workload(spec, "checkpoint_blocker")
    return [reason] if reason is not None else []


def shard_blockers(spec: RunSpec) -> List[str]:
    """Why this spec could not run on the sharded backend ([] = it can)."""
    blockers = []
    reason = _ask_workload(spec, "shard_blocker")
    if reason is not None:
        blockers.append(reason)
    if spec.share_threshold is not None:
        blockers.append(_SHARE_SHARD_MSG)
    if spec.queue_policy != "fifo" or spec.queue_capacity is not None:
        blockers.append(FIFO_ONLY_MSG)
    return blockers


def checkpointable(spec: RunSpec) -> bool:
    """Can this spec run under checkpoint/resume?"""
    return not checkpoint_blockers(spec)


def shardable(spec: RunSpec) -> bool:
    """Can this spec run on the sharded backend?"""
    return not shard_blockers(spec)


class Rule(NamedTuple):
    """One row of the validation table: a code, a doc line, a predicate.

    ``check(spec)`` returns an error message, or None when the rule holds.
    The docs page renders this table directly (``docs/runspec.md``)."""

    code: str
    doc: str
    check: Callable[[RunSpec], Optional[str]]


def _enum(value: Any, allowed: Tuple[Any, ...], what: str) -> Optional[str]:
    if value not in allowed:
        return f"unknown {what} {value!r}; expected one of {allowed}"
    return None


def _check_workload_params(spec: RunSpec) -> Optional[str]:
    params = spec.workload_params
    if not isinstance(params, dict):
        return f"workload_params must be a dict, got {type(params).__name__}"
    return _ask_workload(spec, "check_params", params)


def _check_topology(spec: RunSpec) -> Optional[str]:
    if spec.topology is None:
        return None
    try:
        topo = topology_from_spec(spec.topology)
    except TopologyError as exc:
        return f"bad topology spec {spec.topology!r}: {exc}"
    if not 0 <= spec.trigger_node < topo.n_nodes:
        return (
            f"trigger_node {spec.trigger_node} out of range for "
            f"{spec.topology!r} ({topo.n_nodes} nodes)"
        )
    return None


def _check_probability(name: str) -> Callable[[RunSpec], Optional[str]]:
    def check(spec: RunSpec) -> Optional[str]:
        value = getattr(spec, name)
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not 0.0 <= value <= 1.0):
            return f"{name} must be a probability in [0, 1], got {value!r}"
        return None

    return check


def _check_positive(name: str, *, optional: bool = False,
                    floor: int = 1) -> Callable[[RunSpec], Optional[str]]:
    def check(spec: RunSpec) -> Optional[str]:
        value = getattr(spec, name)
        if optional and value is None:
            return None
        if not isinstance(value, int) or isinstance(value, bool) or value < floor:
            kind = f"an int >= {floor}" if not optional else f"None or an int >= {floor}"
            return f"{name} must be {kind}, got {value!r}"
        return None

    return check


def _check_checkpoint_policy(spec: RunSpec) -> Optional[str]:
    if spec.checkpoint_dir is not None and spec.checkpoint_every is None:
        # mirror the CheckpointError text run_recursive would raise
        return "checkpoint_dir/checkpoint_sink need checkpoint_every"
    return None


def _check_checkpoint_capability(spec: RunSpec) -> Optional[str]:
    if spec.checkpoint_every is None:
        return None
    blockers = checkpoint_blockers(spec)
    return blockers[0] if blockers else None


def _check_shard_capability(spec: RunSpec) -> Optional[str]:
    if spec.shards <= 1:
        return None
    blockers = shard_blockers(spec)
    return blockers[0] if blockers else None


_retry_limit_value = _check_positive("retry_limit", optional=True, floor=0)


def _check_retry_limit(spec: RunSpec) -> Optional[str]:
    message = _retry_limit_value(spec)
    if message is None and spec.retry_limit is not None and not spec.reliable:
        return "retry_limit needs reliable=True (it configures the layer-1.5 protocol)"
    return message


#: the one capability-rule table: every entry point rejects through this
RULES: Tuple[Rule, ...] = (
    Rule("workload", "workload is a known registry name",
         lambda s: _enum(s.workload, tuple(WORKLOADS), "workload")),
    Rule("workload-params", "workload_params carry what the workload needs",
         _check_workload_params),
    Rule("topology", "topology spec (when given) parses; trigger_node in range",
         _check_topology),
    Rule("mapper", "mapper is a known registry name",
         lambda s: _enum(s.mapper, ("rr", "lbn", "random", "hint"), "mapper")),
    Rule("status", "status is None or an int threshold >= 1",
         _check_positive("status", optional=True)),
    Rule("sat-knobs", "heuristic/simplify/hint_mode are valid (sat only)",
         lambda s: _ask_workload(s, "check_knobs")),
    Rule("share-load", "share_load is 'queue' or 'invocations'",
         lambda s: _enum(s.share_load, _SHARE_LOADS, "share_load")),
    Rule("queue-policy", "queue_policy is fifo/lifo/random",
         lambda s: _enum(s.queue_policy, _QUEUE_POLICIES, "queue_policy")),
    Rule("queue-capacity", "queue_capacity is None or >= 1",
         _check_positive("queue_capacity", optional=True)),
    Rule("scheduler-budget", "scheduler_budget is None or >= 1",
         _check_positive("scheduler_budget", optional=True)),
    Rule("share-threshold", "share_threshold is None or >= 1",
         _check_positive("share_threshold", optional=True)),
    Rule("forward-hops", "forward_hops is >= 0",
         _check_positive("forward_hops", floor=0)),
    Rule("latency", "latency is >= 0", _check_positive("latency", floor=0)),
    Rule("max-steps", "max_steps is >= 1", _check_positive("max_steps")),
    Rule("drop", "drop is a probability in [0, 1]", _check_probability("drop")),
    Rule("duplicate", "duplicate is a probability in [0, 1]",
         _check_probability("duplicate")),
    Rule("retry-limit", "retry_limit is None, or >= 0 with reliable=True",
         _check_retry_limit),
    Rule("checkpoint-every", "checkpoint_every is None or >= 1",
         _check_positive("checkpoint_every", optional=True)),
    Rule("checkpoint-policy", "checkpoint_dir needs checkpoint_every",
         _check_checkpoint_policy),
    Rule("checkpoint-capability",
         "checkpointing excludes traversal and the shared-RNG 'random' heuristic",
         _check_checkpoint_capability),
    Rule("shards", "shards is >= 1", _check_positive("shards")),
    Rule("partitioner", "partitioner is 'strip'",
         lambda s: _enum(s.partitioner, _PARTITIONER_NAMES, "partitioner")),
    Rule("shard-backend", "shard_backend is auto/process/inline",
         lambda s: _enum(s.shard_backend, _SHARD_BACKENDS, "shard_backend")),
    Rule("shard-capability",
         "sharding excludes the shared-RNG 'random' heuristic, work sharing "
         "and non-default inboxes",
         _check_shard_capability),
)


def violations(spec: RunSpec) -> List[Tuple[str, str]]:
    """Every ``(rule_code, message)`` the spec breaks, in table order."""
    found = []
    for rule in RULES:
        message = rule.check(spec)
        if message is not None:
            found.append((rule.code, message))
    return found


def validate(spec: RunSpec) -> RunSpec:
    """Raise :class:`SpecError` on the first broken rule; return the spec.

    The single gate all entry points (CLI, library callers, conformance
    fuzzer, checkpoint resume) reject configurations through, so they all
    produce identical error messages.
    """
    broken = violations(spec)
    if broken:
        raise SpecError(broken[0][1])
    return spec


# -- the result -------------------------------------------------------------


@dataclass
class RunResult:
    """Everything :func:`execute` can tell you about one finished run.

    ``verdict`` is plain comparable data (the conformance oracle's
    comparand); ``results`` is the raw layer-5 result list.  The two state
    digests differ only when a telemetry bus was attached: ``state_digest``
    covers every composed layer (what ``repro solve`` prints),
    ``semantic_digest`` excludes the telemetry layer (what cross-mode
    parity compares — gauge last-values depend on event-relay
    interleaving).  Both are None unless the run checkpointed/resumed or
    the caller asked (``want_state_digest=True``)."""

    spec: RunSpec
    completed: bool
    results: List[Any]
    verdict: Any
    report: Any
    engine_stats: Any = None
    link_stats: Any = None
    state_digest: Optional[str] = None
    semantic_digest: Optional[str] = None
    telemetry: Any = None

    @property
    def result(self) -> Any:
        """The first (root) result, or None when the run was incomplete."""
        return self.results[0] if self.results else None

    def schedule_digest(self) -> str:
        """Digest of the observable schedule (verdict + report totals)."""
        return schedule_digest(self.verdict, self.report)


def schedule_digest(verdict: Any, report: Any) -> str:
    """Canonical digest of one run's observable schedule.

    Verdict + step count + computation time + send/deliver/drop totals +
    the per-step queue-depth series: what the conformance oracle requires
    to be bit-identical across execution modes.
    """
    return canonical_digest({
        "verdict": verdict,
        "steps": report.steps,
        "computation_time": report.computation_time,
        "sent": report.sent_total,
        "delivered": report.delivered_total,
        "dropped": report.dropped_total,
        "queued": [int(q) for q in report.queued_series],
    })


# -- execution --------------------------------------------------------------


def _resolve_reliability(spec: RunSpec, reliability: Any) -> Any:
    if reliability is not None:
        return reliability
    if spec.retry_limit is not None:
        from .reliability import ReliabilityConfig

        return ReliabilityConfig(retry_limit=spec.retry_limit)
    return spec.reliable


def execute(
    spec: RunSpec,
    *,
    topology: Optional[Topology] = None,
    telemetry: Any = None,
    size_fn: Optional[Callable[[Any], int]] = None,
    checkpoint_sink: Optional[Callable[[Any], None]] = None,
    resume_from: Any = None,
    reliability: Any = None,
    heuristic_fn: Any = None,
    fn: Any = None,
    args: Any = None,
    fn_spec: Any = None,
    want_state_digest: Optional[bool] = None,
) -> RunResult:
    """Validate ``spec`` and run it; the one run entry point.

    Everything declarative lives in the spec.  The keyword arguments are
    the runtime attachments a JSON spec cannot carry:

    * ``topology`` — a pre-built :class:`~repro.topology.Topology`,
      overriding (or standing in for a missing) ``spec.topology`` string;
    * ``telemetry`` — a :class:`~repro.telemetry.TelemetryBus` (or
      ``True`` for a fresh one, reachable as ``result.telemetry``);
    * ``size_fn`` — a message-size model (``spec.sat_sizing`` builds the
      standard SAT envelope sizer when this is omitted);
    * ``checkpoint_sink`` / ``resume_from`` — in-memory checkpoint
      capture and resume (file-based policy is in the spec);
    * ``reliability`` — a configured
      :class:`~repro.reliability.ReliabilityConfig` overriding the
      spec's ``reliable``/``retry_limit`` pair;
    * ``heuristic_fn`` — the branching heuristic of a SAT spec whose
      ``heuristic`` is ``"custom"``;
    * ``fn`` / ``args`` / ``fn_spec`` — the ``custom`` workload's
      generator function, root argument and picklable shard recipe;
    * ``want_state_digest`` — force state-digest computation on or off
      (default: computed exactly when the run checkpoints or resumes).

    Returns a :class:`RunResult`; raises :class:`SpecError` (a broken
    rule), :class:`~repro.errors.SimulationError` (incomplete strict run)
    or :class:`~repro.errors.CheckpointError` (bad resume state) like the
    layers it assembles.
    """
    validate(spec)
    if resume_from is not None:
        # resuming is checkpointing's other half: same capability rule
        blockers = checkpoint_blockers(spec)
        if blockers:
            raise SpecError(blockers[0])
    topo = topology
    if topo is None:
        if spec.topology is None:
            raise SpecError(
                "spec has no topology string; pass a Topology object via "
                "execute(..., topology=...)"
            )
        topo = topology_from_spec(spec.topology)
    if not 0 <= spec.trigger_node < topo.n_nodes:
        raise SpecError(
            f"trigger_node {spec.trigger_node} out of range for "
            f"{topo.describe()} ({topo.n_nodes} nodes)"
        )
    if size_fn is None and spec.sat_sizing:
        from .apps.sat import sat_content_size
        from .netsim import make_envelope_sizer

        size_fn = make_envelope_sizer(sat_content_size)

    checkpointing = spec.checkpoint_every is not None or resume_from is not None
    want = want_state_digest if want_state_digest is not None else checkpointing

    workload = WORKLOADS[spec.workload]
    program = workload.build(
        spec, heuristic_fn=heuristic_fn, fn=fn, args=args, fn_spec=fn_spec
    )
    stack = HyperspaceStack(
        topo,
        mapper=spec.mapper,
        status=spec.status,
        cancellation=spec.cancellation,
        forward_hops=spec.forward_hops,
        share_threshold=spec.share_threshold,
        share_load=spec.share_load,
        seed=spec.seed,
        scheduler_budget=spec.scheduler_budget,
        queue_policy=spec.queue_policy,
        queue_capacity=spec.queue_capacity,
        record_queue_depths=spec.record_queue_depths,
        size_fn=size_fn,
        latency=spec.latency,
        drop=spec.drop,
        duplicate=spec.duplicate,
        reliable=_resolve_reliability(spec, reliability),
        telemetry=telemetry,
        shards=min(spec.shards, topo.n_nodes),
        shard_backend=spec.shard_backend,
    )
    meta: Optional[Dict[str, Any]] = None
    if spec.checkpoint_every is not None:
        # the canonical header: `repro solve --resume` rebuilds the run
        # from this spec through this same function.  The shard layout is
        # normalised away: checkpoints never record the shard count, a
        # sharded run resumes serially and vice versa
        header = spec.with_(shards=1, shard_backend="auto")
        meta = {"runspec": header.to_dict()}
    try:
        if program.node_program is not None:
            report = stack.run_program(
                program.node_program,
                trigger_node=spec.trigger_node,
                max_steps=spec.max_steps,
                strict=spec.strict,
            )
        else:
            _raw, report = stack.run_recursive(
                program.fn,
                None if resume_from is not None else program.args,
                trigger_node=spec.trigger_node,
                max_steps=spec.max_steps,
                strict=spec.strict,
                halt_on_result=not spec.drain,
                checkpoint_every=spec.checkpoint_every,
                checkpoint_dir=spec.checkpoint_dir,
                checkpoint_sink=checkpoint_sink,
                checkpoint_meta=meta,
                resume_from=resume_from,
            )
        run = stack.last_run
        assert run is not None
        if program.read_node is not None:
            # the raw result is spread over the nodes' program state
            completed = report.quiescent
            verdict = workload.verdict_of(run.machine.map_nodes(program.read_node))
        elif run.results:
            completed, verdict = True, workload.verdict_of(run.results[0])
        else:
            completed, verdict = False, INCOMPLETE
        state_digest = semantic_digest = None
        if want:
            layers = stack._compose_layers(run.machine, run.scheduler)
            state_digest = state_digest_of(layers)
            semantic_digest = state_digest_of(
                {k: v for k, v in layers.items() if k != "telemetry"}
            )
        rel_layer = run.machine.reliability
        link_stats = rel_layer.stats if rel_layer is not None else None
    finally:
        # also on a strict run that timed out or a mid-run error: sharded
        # worker processes must not outlive the run
        stack.close()
    return RunResult(
        spec=spec,
        completed=completed,
        results=list(run.results),
        verdict=verdict,
        report=report,
        engine_stats=run.engine_stats,
        link_stats=link_stats,
        state_digest=state_digest,
        semantic_digest=semantic_digest,
        telemetry=stack.telemetry,
    )
