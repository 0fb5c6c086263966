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
"""

import pytest

from repro.engine import RunSpec, execute

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
    "sat": ("da6c35da75bd3da6", "85f0b7881fd6f7b7"),
    "fib": ("f3a4017c20013bb2", "74ac11e17e8222e8"),
    "nqueens": ("0774c3531c887b76", "92329964451b75b0"),
    "sumrec": ("f490c685c323e707", "ec94a812bf43cd31"),
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
    assert digests(run) == ("f91fe891ef8388e0", "750ea3c7e05d0666")
    assert run.link_stats.retransmits == 10


def test_resumed_sat_lands_on_the_uninterrupted_digests():
    checkpoints = []
    execute(SPECS["sat"].with_(checkpoint_every=5),
            checkpoint_sink=checkpoints.append)
    assert len(checkpoints) == 2
    run = execute(SPECS["sat"], resume_from=checkpoints[1],
                  want_state_digest=True)
    assert digests(run) == PINNED["sat"]


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

    from repro.conformance.space import FuzzConfig

    corpus = Path(__file__).parent / "conformance" / "corpus"
    seen = set()
    for path in sorted(corpus.glob("*.json")):
        for index, entry in enumerate(json.loads(path.read_text())["configs"]):
            config = FuzzConfig.from_dict(entry.get("config", entry))
            if config.workload != "traversal":
                continue
            seen.add((path.name, index))
            base = config.to_runspec().with_(checkpoint_every=None,
                                             shard_backend="inline")
            for shards in (1, config.shards):
                run = execute(base.with_(shards=shards), want_state_digest=True)
                assert run.completed
                assert digests(run) == CORPUS_TRAVERSALS[path.name, index]
    assert seen == set(CORPUS_TRAVERSALS)
