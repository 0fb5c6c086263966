"""The engine front door: RunSpec round-trips, the validation table,
execute() per workload, the workload table, and the entry-point lint.

The engine is the single place machines are assembled, so these tests pin
its contracts: a spec is frozen JSON-round-trippable data, the capability
table rejects the same combinations with the same messages everywhere,
every workload is one record of ``repro.workloads`` and runs through the
one assembly path, which honours every spec field for all of them.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine import (
    RULES,
    RunSpec,
    checkpointable,
    cnf_of,
    execute,
    shardable,
    validate,
    violations,
)
from repro.errors import ApplicationError, SpecError
from repro.topology import topology_from_spec

REPO_ROOT = Path(__file__).resolve().parents[1]


# -- serialisation ---------------------------------------------------------


SPEC_SAMPLES = [
    RunSpec(),
    RunSpec(workload="sat",
            workload_params={"num_vars": 6, "num_clauses": 14, "formula_seed": 3},
            topology="torus:3x3", mapper="lbn", status=16,
            heuristic="jeroslow_wang", simplify="fixpoint", hint_mode="vars",
            seed=42, drop=0.05, duplicate=0.02, reliable=True),
    RunSpec(workload="sat",
            workload_params={"clauses": [[1, -2], [2]], "num_vars": 2},
            topology="ring:4", simplify="none", checkpoint_every=5,
            checkpoint_dir="ckpts"),
    RunSpec(workload="traversal", workload_params={}, topology="hypercube:3",
            shards=2, shard_backend="inline"),
    RunSpec(workload="nqueens", workload_params={"n": 5}, topology="grid:2x4",
            drain=False, strict=False, max_steps=500, retry_limit=3,
            reliable=True),
]


@pytest.mark.parametrize("spec", SPEC_SAMPLES)
def test_runspec_json_round_trip_identity(spec):
    assert RunSpec.from_json(spec.to_json()) == spec
    assert RunSpec.from_dict(spec.to_dict()) == spec


def test_runspec_canonical_json_is_key_order_independent():
    spec = RunSpec(workload="fib", workload_params={"n": 7}, topology="ring:4")
    shuffled = dict(reversed(list(spec.to_dict().items())))
    assert RunSpec.from_dict(shuffled).canonical_json() == spec.canonical_json()
    assert RunSpec.from_dict(shuffled).digest() == spec.digest()


def test_runspec_rejects_unknown_fields():
    with pytest.raises(SpecError, match="unknown RunSpec fields"):
        RunSpec.from_dict({"workload": "fib", "wokload_params": {"n": 1}})
    with pytest.raises(SpecError, match="unknown RunSpec fields"):
        RunSpec().with_(wokload="fib")


@pytest.mark.parametrize("version", [999, True])
def test_runspec_rejects_future_schema_version(version):
    data = RunSpec().to_dict()
    data["version"] = version
    with pytest.raises(SpecError, match="unsupported RunSpec schema version"):
        RunSpec.from_dict(data)


def test_runspec_missing_fields_take_defaults():
    spec = RunSpec.from_dict({"workload": "fib", "workload_params": {"n": 3}})
    assert spec.version == 1
    assert spec.mapper == "rr"
    assert spec.shards == 1


# -- the validation table --------------------------------------------------


#: violating specs keyed by rule code (every row of the table fires); a
#: second case for a rule is keyed ``code/what``
RULE_VIOLATIONS = {
    "workload": RunSpec(workload="bogus"),
    "workload-params": RunSpec(workload="fib", workload_params={}),
    "topology": RunSpec(topology="klein-bottle:7"),
    "seed": RunSpec(seed=2.5),
    "mapper": RunSpec(mapper="bogus"),
    "status": RunSpec(status="sixteen"),
    "sat-knobs": RunSpec(
        workload="sat",
        workload_params={"num_vars": 4, "num_clauses": 9, "formula_seed": 0},
        heuristic="bogus",
    ),
    "share-load": RunSpec(share_load="bogus"),
    "queue-policy": RunSpec(queue_policy="bogus"),
    "queue-capacity": RunSpec(queue_capacity=0),
    "scheduler-budget": RunSpec(scheduler_budget=0),
    "share-threshold": RunSpec(share_threshold=-1),
    "forward-hops": RunSpec(forward_hops=-1),
    "latency": RunSpec(latency=-1),
    "max-steps": RunSpec(max_steps=0),
    "drop": RunSpec(drop=1.5),
    "duplicate": RunSpec(duplicate=-0.1),
    "retry-limit": RunSpec(retry_limit=3),  # needs reliable=True
    # a bool is an int to isinstance(); no numeric rule may take one
    "drop/bool": RunSpec(drop=True),
    "retry-limit/bool": RunSpec(reliable=True, retry_limit=True),
    "checkpoint-every": RunSpec(checkpoint_every=0),
    "checkpoint-policy": RunSpec(checkpoint_dir="ckpts"),
    "checkpoint-capability": RunSpec(
        workload="traversal", workload_params={}, checkpoint_every=5,
    ),
    "shards": RunSpec(shards=0),
    "partitioner": RunSpec(partitioner="bogus"),
    # a name the partitioner rule no longer accepts
    "partitioner/grid": RunSpec(partitioner="grid"),
    "shard-backend": RunSpec(shard_backend="bogus"),
    "shard-capability": RunSpec(share_threshold=4, shards=2),
    # the bool fields: a string or an int would read as some bool
    "cancellation": RunSpec(cancellation="yes"),
    "record-queue-depths": RunSpec(record_queue_depths="x"),
    "drain": RunSpec(drain=0),
    "strict": RunSpec(strict="no"),
    "reliable": RunSpec(reliable="no"),
    "sat-sizing": RunSpec(sat_sizing=1),
}


#: values layer 3's constructors refuse with a MappingError: the table must
#: refuse them first, so execute() never gets that far
LAYER3_REFUSALS = {
    "share_threshold=0": ("share-threshold", {"share_threshold": 0}),
    "status=0": ("status", {"status": 0}),
    "status=-3": ("status", {"status": -3}),
}


@pytest.mark.parametrize("case", sorted(LAYER3_REFUSALS))
def test_thresholds_layer3_refuses_are_spec_errors(case):
    code, knobs = LAYER3_REFUSALS[case]
    spec = RunSpec(workload="fib", workload_params={"n": 5}, topology="ring:4",
                   **knobs)
    assert [c for c, _ in violations(spec)] == [code]
    with pytest.raises(SpecError):
        execute(spec)


def test_every_rule_has_a_violation_case():
    covered = {case.split("/")[0] for case in RULE_VIOLATIONS}
    assert sorted(covered) == sorted(r.code for r in RULES)


@pytest.mark.parametrize("case", sorted(RULE_VIOLATIONS))
def test_rule_fires_and_validate_raises(case):
    spec = RULE_VIOLATIONS[case]
    assert case.split("/")[0] in [c for c, _ in violations(spec)]
    with pytest.raises(SpecError):
        validate(spec)


NON_INTS = [("seed", 2.5), ("seed", True), ("seed", "1"),
            ("trigger_node", True), ("trigger_node", 1.0)]


@pytest.mark.parametrize("field, value", NON_INTS,
                         ids=[f"{f}={v!r}" for f, v in NON_INTS])
def test_seed_and_trigger_node_must_be_ints(field, value):
    # each ran: seed=2.5 gave the seed=2 schedule, True stood in for 1
    spec = RunSpec(workload="fib", workload_params={"n": 7}, topology="torus2d:3x3",
                   mapper="random", **{field: value})
    message = f"{field} must be an int, got {value!r}"
    code = "seed" if field == "seed" else "topology"
    assert violations(spec) == [(code, message)]
    # a topology object skips the table's topology row; execute still refuses
    with pytest.raises(SpecError, match=re.escape(message)):
        execute(spec.with_(topology=None), topology=topology_from_spec("torus2d:3x3"))


def test_partitioner_rule_names_the_one_legal_value():
    [(code, message)] = violations(RunSpec(topology="ring:4", partitioner="grid"))
    assert code == "partitioner"
    assert message == "unknown partitioner 'grid'; expected one of ('strip',)"


def test_valid_default_spec_passes():
    assert violations(RunSpec(topology="ring:4")) == []


def test_spec_error_is_an_application_error():
    # the CLI's exit-2 handler and older pytest.raises(ApplicationError)
    # call sites catch engine rejections unchanged
    assert issubclass(SpecError, ApplicationError)


def test_capability_messages_are_the_historical_ones():
    random_sat = RunSpec(
        workload="sat",
        workload_params={"num_vars": 4, "num_clauses": 9, "formula_seed": 0},
        topology="ring:4", heuristic="random",
    )
    with pytest.raises(SpecError, match="cannot be checkpointed/resumed"):
        validate(random_sat.with_(checkpoint_every=5))
    with pytest.raises(SpecError, match="draws would diverge from a serial run"):
        validate(random_sat.with_(shards=2))
    with pytest.raises(SpecError, match="reads live inbox depths"):
        validate(RunSpec(topology="ring:4", share_threshold=4, shards=2))
    for inbox in ({"queue_policy": "lifo"}, {"queue_policy": "random"},
                  {"queue_capacity": 50}):
        # the constructor guard's words, before any machine is built
        spec = RunSpec(workload="fib", workload_params={"n": 6},
                       topology="ring:4", shards=2, **inbox)
        assert [code for code, _ in violations(spec)] == ["shard-capability"]
        with pytest.raises(SpecError, match="only the default unbounded FIFO"):
            execute(spec)
        assert violations(spec.with_(shards=1)) == []
    assert not checkpointable(random_sat)
    assert not shardable(random_sat)
    assert checkpointable(RunSpec(topology="ring:4"))
    assert shardable(RunSpec(topology="ring:4"))


# -- execute() per workload ------------------------------------------------


def test_execute_fib():
    run = execute(RunSpec(workload="fib", workload_params={"n": 7},
                          topology="torus:3x3"))
    assert run.completed
    assert run.verdict == {"kind": "fib", "value": 13}
    assert run.result == 13


def test_semantic_digest_does_not_depend_on_an_attached_bus():
    from repro.telemetry import MetricsSubscriber, TelemetryBus

    spec = RunSpec(workload="fib", workload_params={"n": 10}, topology="ring:6", seed=1)
    bare = execute(spec, want_state_digest=True)
    bus = TelemetryBus()
    bus.attach(MetricsSubscriber())
    observed = execute(spec, telemetry=bus, want_state_digest=True)
    assert observed.schedule_digest() == bare.schedule_digest()
    assert observed.semantic_digest == bare.semantic_digest


def test_execute_sumrec():
    run = execute(RunSpec(workload="sumrec", workload_params={"n": 10},
                          topology="torus:3x3", drain=False))
    assert run.result == 55
    assert run.verdict == {"kind": "sumrec", "value": 55}


def test_execute_nqueens():
    run = execute(RunSpec(workload="nqueens", workload_params={"n": 4},
                          topology="ring:6"))
    assert run.verdict["kind"] == "nqueens"
    assert run.verdict["placement"] is not None


def test_execute_sat_generated_formula():
    spec = RunSpec(
        workload="sat",
        workload_params={"num_vars": 6, "num_clauses": 14, "formula_seed": 0},
        topology="torus:3x3",
    )
    run = execute(spec)
    assert run.verdict["kind"] == "sat"
    if run.verdict["sat"]:
        model = dict(run.verdict["assignment"])
        assert cnf_of(spec.workload_params).is_satisfied_by(model)


def test_execute_flood_traversal():
    run = execute(RunSpec(workload="traversal", workload_params={},
                          topology="ring:5"))
    assert run.verdict == {"kind": "traversal", "visited": [0, 1, 2, 3, 4]}


def test_execute_custom_needs_fn():
    spec = RunSpec(workload="custom", workload_params={}, topology="ring:4")
    with pytest.raises(SpecError, match="custom"):
        execute(spec)

    from repro.apps.fib import fib

    run = execute(spec, fn=fib, args=6)
    assert run.verdict == {"kind": "custom", "value": 8}


def test_execute_without_topology_anywhere():
    with pytest.raises(SpecError, match="no topology"):
        execute(RunSpec(workload="fib", workload_params={"n": 3}))


def test_execute_sharded_matches_serial():
    spec = RunSpec(workload="fib", workload_params={"n": 8},
                   topology="torus:3x3", seed=5)
    serial = execute(spec, want_state_digest=True)
    sharded = execute(spec.with_(shards=2, shard_backend="inline"),
                      want_state_digest=True)
    assert serial.verdict == sharded.verdict
    assert serial.schedule_digest() == sharded.schedule_digest()
    assert serial.semantic_digest == sharded.semantic_digest


# -- the workload table ----------------------------------------------------


def test_every_workload_name_has_a_record():
    import repro.apps
    from repro.conformance import space
    from repro.workloads import WORKLOADS

    assert all(record.name == name for name, record in WORKLOADS.items())
    # repro.apps ships the registered workloads' modules and nothing else
    assert set(repro.apps.__all__) == set(WORKLOADS) - {"custom"}
    # the sampler draws only workloads the table knows and can sample
    sampled = space.SPACE["workload"]
    assert set(sampled) <= set(WORKLOADS)
    assert all(WORKLOADS[n].sample_params is not None for n in sampled)


@pytest.mark.parametrize("name", ["sat", "fib", "nqueens", "sumrec", "traversal"])
def test_record_defaults_pass_their_check_and_agree_with_their_reference(name):
    from repro.topology import topology_from_spec
    from repro.workloads import WORKLOADS

    record = WORKLOADS[name]
    assert record.check_params(record.default_params) is None
    spec = RunSpec(workload=name, workload_params=dict(record.default_params),
                   topology="torus2d:3x3")
    assert violations(spec) == []
    run = execute(spec)
    assert run.completed and run.verdict["kind"] == name
    assert record.reference is not None
    topology = topology_from_spec(spec.topology)
    assert record.verify(spec.workload_params, topology, run.verdict) is None


def test_custom_record_has_no_reference_and_accepts_any_params():
    from repro.workloads import WORKLOADS

    record = WORKLOADS["custom"]
    assert record.check_params(record.default_params) is None
    assert record.reference is None
    assert record.verify({}, None, {"kind": "custom", "value": 1}) is None


def test_cnf_to_params_inverts_cnf_of():
    from repro.apps.sat import CNF

    cnf = CNF([(1, -2), (2, 3), (-3,)], num_vars=4)
    params = cnf.to_params()
    assert params == {"clauses": [[1, -2], [2, 3], [-3]], "num_vars": 4}
    assert json.loads(json.dumps(params)) == params
    assert cnf_of(params) == cnf and cnf_of(params).num_vars == 4


# -- one assembly path: traversal obeys its spec ---------------------------

#: the bare-machine path this replaced ignored every one of these
TRAVERSAL = RunSpec(workload="traversal", workload_params={},
                    topology="torus2d:6x6", max_steps=2, strict=False)


def _queue_depths(run):
    # a steps x n_nodes matrix, not None
    assert run.report.queue_depths.shape == (run.report.steps, 36)


def _incomplete(run):
    # max_steps=2 floods 5 of 36 nodes: the run did not finish
    assert not run.completed and not run.report.quiescent
    assert len(run.verdict["visited"]) == 5


def _complete(run):
    assert run.completed and run.report.quiescent
    assert len(run.verdict["visited"]) == 36


@pytest.mark.parametrize("spec, check", [
    (TRAVERSAL.with_(record_queue_depths=True), _queue_depths),
    (TRAVERSAL, _incomplete),
    (TRAVERSAL.with_(max_steps=1000), _complete),
], ids=["record_queue_depths", "completed", "quiescent"])
def test_traversal_honours_spec_fields(spec, check):
    check(execute(spec))


def test_sat_sizing_charges_envelope_sizes():
    # the one way a message-size model reaches layer 1 from a spec
    spec = RunSpec(workload="sat", topology="ring:4",
                   workload_params={"num_vars": 6, "num_clauses": 20, "formula_seed": 1})
    plain, sized = execute(spec), execute(spec.with_(sat_sizing=True))
    assert plain.report.traffic_total == plain.report.sent_total
    assert sized.report.traffic_total > sized.report.sent_total == plain.report.sent_total


def test_traversal_strict_run_that_hits_max_steps_raises():
    from repro.errors import SimulationError

    with pytest.raises(SimulationError, match="did not complete within 2 steps"):
        execute(TRAVERSAL.with_(strict=True))


def test_traversal_resume_is_refused_not_restarted():
    checkpoints = []
    execute(RunSpec(topology="ring:4", checkpoint_every=2),
            checkpoint_sink=checkpoints.append)
    with pytest.raises(SpecError, match="bare layer-1 program"):
        execute(TRAVERSAL, resume_from=checkpoints[0])


# -- shard workers never outlive a failed run ------------------------------


@pytest.mark.parametrize("workload, params", [("fib", {"n": 12}), ("traversal", {})])
def test_failed_process_sharded_run_leaves_no_worker_alive(workload, params):
    import multiprocessing

    from repro.errors import ReliabilityError

    spec = RunSpec(workload=workload, workload_params=params,
                   topology="torus2d:4x4", drop=0.6, reliable=True,
                   retry_limit=0, seed=3, shards=2, shard_backend="process")
    try:
        execute(spec)
    except ReliabilityError:
        # inside the handler, with the traceback (and every frame it pins)
        # still alive and no gc pass: the engine itself must have closed
        alive = [p.name for p in multiprocessing.active_children()
                 if p.name.startswith("repro-shard-")]
        assert alive == []
    else:
        pytest.fail("retry_limit=0 under 60% loss must exhaust a link")


# -- the entry-point lint (tier 1) -----------------------------------------


def test_entrypoint_lint_passes_on_this_checkout():
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_entrypoints.py")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_entrypoint_lint_catches_a_violation(tmp_path):
    bad = tmp_path / "src" / "repro"
    bad.mkdir(parents=True)
    (bad / "rogue.py").write_text(
        "from repro.stack import HyperspaceStack\n"
        "stack = HyperspaceStack(object())\n"
    )
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_entrypoints.py"),
         "--root", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "rogue.py" in proc.stderr
    assert "HyperspaceStack" in proc.stderr


@pytest.mark.parametrize("constructor, rel_path", [
    # each constructor has its own allowlist: a file trusted with one
    # is still refused the others
    ("HyperspaceStack", "src/repro/stack.py"),
    ("ShardedMachine", "src/repro/engine.py"),
    ("Machine", "src/repro/engine.py"),
    ("Machine", "src/repro/telemetry/capture.py"),
    ("SchedulerProgram", "src/repro/engine.py"),
    ("MappingService", "src/repro/engine.py"),
    ("RecursionEngine", "src/repro/engine.py"),
])
def test_entrypoint_lint_allowlists_are_per_constructor(tmp_path, constructor, rel_path):
    bad = tmp_path / rel_path
    bad.parent.mkdir(parents=True)
    bad.write_text(f"machine = {constructor}(object(), object())\n")
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_entrypoints.py"),
         "--root", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert f"{rel_path}:1: {constructor}(...)" in proc.stderr


def test_entrypoint_lint_accepts_each_constructor_in_its_own_files(tmp_path):
    for constructor, rel_path in [
        ("HyperspaceStack", "src/repro/engine.py"),
        ("ShardedMachine", "src/repro/stack.py"),
        ("Machine", "src/repro/stack.py"),
        ("Machine", "src/repro/apps/traversal.py"),
        ("Machine", "benchmarks/bench_microbenchmarks.py"),
        ("SchedulerProgram", "src/repro/stack.py"),
        ("MappingService", "src/repro/stack.py"),
        ("RecursionEngine", "src/repro/stack.py"),
    ]:
        path = tmp_path / rel_path
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a") as fh:
            fh.write(f"machine = {constructor}(object(), object())\n")
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_entrypoints.py"),
         "--root", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
