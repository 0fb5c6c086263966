"""Seed-pinned digests of one small run per engine workload.

Recorded on the commit *before* the run-assembly paths were merged into
one (three builders, a bare-machine traversal path, a kwargs shim) and
pinned as literals in the style of
``tests/netsim/test_step_kernel_parity.py``: the single path must
reproduce every schedule and every semantic state digest bit for bit,
serial and sharded, fresh, resumed and over lossy links.

A changed digest is a behaviour change of the assembled stack, not a test
to update casually: re-derive the value from a known-good commit and
justify the difference.

Re-recorded once, semantic halves only: the scheduler used to update a
node's ``last_pid`` (part of every node snapshot) only when a telemetry
bus was attached, so a bare run's state digest differed from an observed
one.  It now always does, and every semantic digest below that runs
through the scheduler took the value the previous commit gave *with a bus
attached*.  No schedule digest, event stream or metrics pin moved.

Re-recorded a second time, semantic halves only, when the scheduler
snapshot went to version 2: a node's snapshot lost the round-robin policy
object (its cursor is ``last_pid``), the arrival counter and the sequence
number in each queue entry, and an unbudgeted node no longer writes its
budget counters.  The shape of every node snapshot changed, so every
semantic digest below that runs through the scheduler moved; the
traversal pins, which run no scheduler, did not.  Every schedule digest,
step and message count, event stream and metrics pin is unchanged.

Re-recorded a third time, semantic halves only, when the scheduler
snapshot went to version 3: each node's layer-3 state held a status-policy
object (``NoStatusPolicy`` or ``ExplicitStatusPolicy`` with its threshold
and last broadcast) and now holds the one int ``last_broadcast``; the
threshold lives on the service.  The broadcast rule is the same, so every
schedule digest, step and message count, event stream, metrics pin and
traversal pin is unchanged; every semantic digest that runs through the
mapping service moved, the ``UNFOLD_PINNED`` ones included.

Re-recorded a fourth time, semantic halves of ``lbn`` and ``hint`` runs
only, when layer 3 came to pick its mapper by name alone: the
least-busy-neighbour mapper lost its ``track_outstanding`` slot (it always
counts posted work) and the hint-aware mapper its ``alpha`` slot (it
always scores ``known + outstanding``, which ``alpha = 1.0`` multiplied
exactly).  Both mappers choose as before, so every schedule digest, step
and message count, event stream, metrics pin and traversal pin is
unchanged; ``rr`` and ``random`` semantic digests did not move either.
"""

import pytest

from repro.conformance.space import sample_list
from repro.engine import RunSpec, execute
from repro.netsim.digest import canonical_digest
from repro.telemetry import EventLog, MetricsSubscriber, TelemetryBus

SAT = {"num_vars": 12, "num_clauses": 40, "formula_seed": 5}

SPECS = {
    "sat": RunSpec(workload="sat", workload_params=SAT, topology="torus2d:4x4",
                   mapper="lbn", status=4, seed=3),
    "fib": RunSpec(workload="fib", workload_params={"n": 9},
                   topology="hypercube:3", seed=1),
    "nqueens": RunSpec(workload="nqueens", workload_params={"n": 5},
                       topology="grid:3x3", mapper="hint", seed=2, drain=False),
    "sumrec": RunSpec(workload="sumrec", workload_params={"n": 12},
                      topology="ring:6", latency=2, seed=4),
    "traversal": RunSpec(workload="traversal", workload_params={},
                         topology="torus2d:5x5", trigger_node=7, seed=5),
}

#: workload -> (schedule_digest, semantic_digest), identical at any shard count
PINNED = {
    "sat": ("da6c35da75bd3da6", "c5465b3bd7b9a58f"),
    "fib": ("f3a4017c20013bb2", "2dd3d54679213267"),
    "nqueens": ("0774c3531c887b76", "a6748ab1482255be"),
    "sumrec": ("f490c685c323e707", "79e832dddd5dc6c1"),
    "traversal": ("9805b1f15002c17b", "63c678c46e272f2e"),
}


def digests(run):
    return run.schedule_digest(), run.semantic_digest


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("workload", sorted(SPECS))
def test_workload_digests_pinned(workload, shards):
    spec = SPECS[workload].with_(shards=shards, shard_backend="inline")
    run = execute(spec, want_state_digest=True)
    assert run.completed
    assert digests(run) == PINNED[workload]


def test_lossy_reliable_sat_pinned():
    spec = SPECS["sat"].with_(
        drop=0.1, duplicate=0.05, reliable=True, mapper="rr", status=None
    )
    run = execute(spec, want_state_digest=True)
    assert digests(run) == ("f91fe891ef8388e0", "142270e429e3431f")
    assert run.link_stats.retransmits == 10


def test_resumed_sat_lands_on_the_uninterrupted_digests():
    checkpoints = []
    execute(SPECS["sat"].with_(checkpoint_every=5),
            checkpoint_sink=checkpoints.append)
    assert len(checkpoints) == 2
    run = execute(SPECS["sat"], resume_from=checkpoints[1],
                  want_state_digest=True)
    assert digests(run) == PINNED["sat"]


# -- a run that is mostly waiting ---------------------------------------------
#
# Recorded on the commit before ``Machine.run`` learned to jump over empty
# time (every one of the 793 steps executed by ``step()``): at ``latency=32``
# all but 25 of them deliver nothing, and the jump must not show — not in
# the schedule, not in the step count.


@pytest.mark.parametrize("shards", [1, 2])
def test_wide_gap_sumrec_pinned(shards):
    spec = SPECS["sumrec"].with_(latency=32, shards=shards, shard_backend="inline")
    run = execute(spec, want_state_digest=True)
    assert run.completed
    assert digests(run) == ("53db32f11e121385", "5757388ae499a71b")
    assert (run.report.steps, run.report.sent_total) == (793, 25)


# -- the published event stream ---------------------------------------------
#
# Recorded before the step kernel's batched and per-event delivery loops
# (and the sharded coordinator's copy of both) became one loop plus two
# overridable handler rounds: with a subscriber that retains events, the
# stream is causally ordered — each deliver record, then that handler's
# sends, per node ascending — and every backend must reproduce it bit for
# bit, not just the totals.

STREAM_BASES = {
    "uf20": RunSpec(workload="sat",
                    workload_params={"num_vars": 20, "num_clauses": 91,
                                     "formula_seed": 1},
                    topology="torus2d:4x4", mapper="lbn", status=4, seed=3),
    "fib": RunSpec(workload="fib", workload_params={"n": 10},
                   topology="ring:6", seed=1),
}

STREAM_VARIANTS = {
    "serial": {},
    "shards2": {"shards": 2, "shard_backend": "inline"},
    "lossy": {"drop": 0.05, "duplicate": 0.02, "reliable": True},
}

#: (base, variant) -> (digest of the event dicts in order, event count)
STREAM_PINNED = {
    ("uf20", "serial"): ("6ce0e73afd88db1b", 1210),
    ("uf20", "shards2"): ("f0bb9e0d56a0780d", 1210),
    ("uf20", "lossy"): ("2ecaef1616bd167d", 1752),
    ("fib", "serial"): ("bd5ea98033f048ed", 2461),
    ("fib", "shards2"): ("11474aa3b4d17214", 2461),
    ("fib", "lossy"): ("c6342a89982241c3", 3247),
}


@pytest.mark.parametrize("variant", sorted(STREAM_VARIANTS))
@pytest.mark.parametrize("base", sorted(STREAM_BASES))
def test_event_stream_pinned(base, variant):
    bus = TelemetryBus()
    log = bus.attach(EventLog())
    run = execute(STREAM_BASES[base].with_(**STREAM_VARIANTS[variant]),
                  telemetry=bus)
    assert run.completed
    stream = [event.as_dict() for event in log.events]
    assert (canonical_digest(stream), len(stream)) == STREAM_PINNED[base, variant]


# -- the benchmark's own configuration ---------------------------------------
#
# ``PINNED["sat"]`` runs ``simplify="single"``; the end-to-end benchmark and
# the paper's Figure 5 run ``simplify="none"``.  Recorded on the commit
# before one occurrence index replaced the per-branch formula scans and
# one-pass ``choose`` replaced the two-pass one: the uf20 stream base under
# three mappers and the four deterministic heuristics, identical serial and
# on two inline shards.

UNFOLD_MAPPERS = {
    "lbn": {"mapper": "lbn", "status": 4},
    "rr": {"mapper": "rr", "status": None},
    "hint": {"mapper": "hint", "status": None, "hint_mode": "vars"},
}

#: (mapper, heuristic) -> (schedule_digest, semantic_digest)
UNFOLD_PINNED = {
    ("lbn", "max_occurrence"): ("fff744ab2bf8d778", "65366ff19bee822c"),
    ("lbn", "moms"): ("4f35768bc16214ea", "bca3fb416884e036"),
    ("lbn", "jeroslow_wang"): ("80bf424816d6bf79", "5ccc897608443e4e"),
    ("lbn", "first"): ("d6f28984d5c8347f", "f7b7894cd2863121"),
    ("rr", "max_occurrence"): ("85f160e614de660e", "deb89d3854cabfde"),
    ("rr", "moms"): ("2fca7817d55c7518", "3e4d7508cd950b7a"),
    ("rr", "jeroslow_wang"): ("4219207a59b2359a", "07377e06a3a0f416"),
    ("rr", "first"): ("a8f79ef9c3aa2e83", "05fc82ba63cce794"),
    ("hint", "max_occurrence"): ("3e0b86a7294a44de", "700aa0717baea045"),
    ("hint", "moms"): ("607c70d43c8a9add", "6044bccf11e80d0a"),
    ("hint", "jeroslow_wang"): ("667c89824f16fda9", "c2d8968f99793552"),
    ("hint", "first"): ("4d0f59bb28d97a44", "a0da0dc22c9ca555"),
}


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("mapper,heuristic", sorted(UNFOLD_PINNED))
def test_unfolding_sat_digests_pinned(mapper, heuristic, shards):
    spec = STREAM_BASES["uf20"].with_(
        simplify="none", heuristic=heuristic, shards=shards,
        shard_backend="inline", **UNFOLD_MAPPERS[mapper]
    )
    run = execute(spec, want_state_digest=True)
    assert run.completed
    assert digests(run) == UNFOLD_PINNED[mapper, heuristic]


# -- what the aggregators count ---------------------------------------------
#
# Recorded before the bus's eager per-event dispatch was folded into the
# buffered path: every counter, histogram and gauge a MetricsSubscriber
# derives, and the bus's own events_emitted, per backend — once with the
# aggregator alone and once with an EventLog beside it.  The second audience
# changes how many events are *published* (layer 1 and the reliability layer
# only build per-message records for a subscriber that keeps them), never
# what is counted.

METRICS_VARIANTS = dict(
    STREAM_VARIANTS, process2={"shards": 2, "shard_backend": "process"}
)

#: (base, variant) -> (digest of MetricsSubscriber.as_dict(),
#:                     events_emitted alone, events_emitted beside an EventLog)
METRICS_PINNED = {
    ("uf20", "serial"): ("bb7e7b2484d433fc", 792, 1210),
    ("uf20", "shards2"): ("a21d97167d5ca23a", 792, 1210),
    ("uf20", "process2"): ("a21d97167d5ca23a", 792, 1210),
    ("uf20", "lossy"): ("229f0669b9b42c11", 838, 1752),
    ("fib", "serial"): ("a0f5e02a8e67821b", 1755, 2461),
}


@pytest.mark.parametrize("with_log", [False, True])
@pytest.mark.parametrize("base,variant", sorted(METRICS_PINNED))
def test_metrics_pinned(base, variant, with_log):
    bus = TelemetryBus()
    metrics = bus.attach(MetricsSubscriber())
    if with_log:
        bus.attach(EventLog())
    run = execute(STREAM_BASES[base].with_(**METRICS_VARIANTS[variant]),
                  telemetry=bus)
    assert run.completed
    digest, alone, beside_log = METRICS_PINNED[base, variant]
    assert canonical_digest(metrics.as_dict()) == digest
    assert bus.events_emitted == (beside_log if with_log else alone)


def test_sampler_stream_pinned():
    # "seed 9 names the same 200 configs".  Re-recorded on purpose when the
    # sampler became "draw every row of the SPACE table" (27 fields instead
    # of 16, so the stream had to move), taken over the spec digests so that
    # rewording describe() cannot move it, and re-recorded once more when
    # strip became the only partitioner and the partitioner row left SPACE
    # (one draw fewer per point)
    points = [config.digest() for config in sample_list(9, 200)]
    assert canonical_digest(points) == "1b1ecd1c137ab77e"


#: schedule/semantic digests of the corpus' traversal configs, recorded on
#: the bare-machine path the single assembly path replaced
CORPUS_TRAVERSALS = {
    ("edge-cases.json", 0): ("5a5c5a7e51bf4e65", "d759fb61f9003ce1"),
    ("edge-cases.json", 1): ("1d3fd91402205195", "9dc90757aa6308c0"),
    ("seed9-stratified.json", 5): ("133ec9696875b2d5", "59b73c5c434e63c1"),
    ("seed9-stratified.json", 14): ("530c146bb269141f", "f208c2ebb5d56d53"),
    ("seed9-stratified.json", 15): ("a95bdbc3e4637606", "dc6b6da2c9e283a6"),
}


def test_corpus_traversal_digests_pinned():
    import json
    from pathlib import Path

    corpus = Path(__file__).parent / "conformance" / "corpus"
    seen = set()
    for path in sorted(corpus.glob("*.json")):
        for index, entry in enumerate(json.loads(path.read_text())["configs"]):
            config = RunSpec.from_dict(entry.get("config", entry))
            if config.workload != "traversal":
                continue
            seen.add((path.name, index))
            base = config.with_(checkpoint_every=None, shard_backend="inline")
            for shards in (1, config.shards):
                run = execute(base.with_(shards=shards), want_state_digest=True)
                assert run.completed
                assert digests(run) == CORPUS_TRAVERSALS[path.name, index]
    assert seen == set(CORPUS_TRAVERSALS)
