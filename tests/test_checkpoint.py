"""Snapshot/restore protocol and checkpointed, resumable runs.

The headline invariant under test: restoring a checkpoint taken at any
step *k* onto an identically configured stack and running to completion
produces a bit-identical schedule, verdict, stats and semantic state
digest versus the uninterrupted run — including under link faults with
the reliability layer and under adaptive (LBN) mapping.  Everything here
is computed twice (straight-through vs resumed) rather than pinned as
literals, so the tests assert the *parity*, not one Python version's
pickle bytes.
"""

import copy
import random
from pathlib import Path

import pytest

import repro.engine
import repro.state
from repro.apps.sat import CNF
from repro.apps.sat.generator import uf20_91_suite
from repro.apps.sumrec import calculate_sum
from repro.engine import RunSpec, cnf_of, execute
from repro.errors import ApplicationError, CheckpointError
from repro.netsim import Machine
from repro.netsim.digest import canonical_digest, payload_digest
from repro.netsim.faults import FaultModel
from repro.stack import HyperspaceStack
from repro.state import (
    MAGIC,
    SCHEMA_VERSION,
    LayerState,
    StackCheckpoint,
    load_checkpoint,
    normalize,
    save_checkpoint,
    state_digest_of,
)
from repro.topology import Ring, Torus


def sat_spec(cnf, **knobs):
    return RunSpec(workload="sat", workload_params=cnf.to_params(), **knobs)


# ----------------------------------------------------------------------
# digest helpers (satellite: promoted from the parity tests)


class TestDigests:
    def test_canonical_digest_is_stable_and_order_insensitive(self):
        a = canonical_digest({"x": 1, "y": [2, 3]})
        b = canonical_digest({"y": [2, 3], "x": 1})
        assert a == b
        assert len(a) == 16
        assert a != canonical_digest({"x": 1, "y": [2, 4]})

    def test_canonical_digest_length_knob(self):
        full = canonical_digest([1, 2, 3], length=64)
        assert len(full) == 64
        assert full.startswith(canonical_digest([1, 2, 3]))

    def test_payload_digest_is_full_sha256(self):
        d = payload_digest(b"abc")
        assert d == (
            "ba7816bf8f01cfea414140de5dae2223"
            "b00361a396177a9cb410ff61f20015ad"
        )


class TestNormalize:
    def test_sharing_and_identity_independent(self):
        shared = [1, 2]
        assert normalize({"a": shared, "b": shared}) == normalize(
            {"a": [1, 2], "b": [1, 2]}
        )

    def test_set_order_independent(self):
        assert normalize({3, 1, 2}) == normalize({2, 3, 1})

    def test_dict_iteration_order_is_significant(self):
        # layer state dicts are populated deterministically; normalize
        # preserves their order rather than sorting heterogeneous keys
        assert normalize({1: "a", 2: "b"}) != normalize({2: "b", 1: "a"})

    def test_rng_and_bytes_and_functions(self):
        rng = random.Random(7)
        assert normalize(rng) == normalize(random.Random(7))
        rng.random()
        assert normalize(rng) != normalize(random.Random(7))
        assert normalize(b"abc") == ["bytes", payload_digest(b"abc")]
        tag = normalize(canonical_digest)
        assert tag[0] == "fn" and "canonical_digest" in tag[1]

    def test_slotted_object_fields_collected(self):
        st = LayerState("netsim", 3, {"k": 1})
        tag = normalize(st)
        assert tag[0] == "obj" and tag[1] == "LayerState"
        names = [name for name, _ in tag[2]]
        assert names == ["data", "layer", "version"]

    def test_own_getstate_is_honoured(self):
        # CNF's state is (clauses, num_vars): its occurrence cache, built or
        # not, must not change the digest of an equal formula
        fresh = CNF([(1, 2), (-1, 3)])
        cached = CNF([(1, 2), (-1, 3)])
        cached.occurrences()
        assert normalize(cached) == normalize(fresh)
        assert normalize(fresh) == ["obj", "CNF", [[[1, 2], [-1, 3]], 3]]


class TestLayerState:
    def test_require_validates_layer_and_version(self):
        st = LayerState("sched", 1, {"n": 2})
        assert st.require("sched", 1) == {"n": 2}
        with pytest.raises(CheckpointError, match="belongs to 'sched'"):
            st.require("netsim", 1)
        with pytest.raises(CheckpointError, match="version 1 not supported"):
            st.require("sched", 99)


# ----------------------------------------------------------------------
# on-disk format


def small_checkpoint() -> StackCheckpoint:
    layers = {"netsim": LayerState("netsim", 1, {"step": 3, "rng": [1, 2]})}
    return StackCheckpoint.build(layers, {"step": 3, "topology": "ring(4)"})


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        ckpt = small_checkpoint()
        path = save_checkpoint(tmp_path / "c.ckpt", ckpt)
        loaded = load_checkpoint(path)
        assert loaded.meta == ckpt.meta
        assert loaded.payload == ckpt.payload
        assert loaded.step == 3
        assert loaded.state_digest == state_digest_of(ckpt.layers())
        restored = loaded.layers()
        assert restored["netsim"].data == {"step": 3, "rng": [1, 2]}

    def test_header_is_readable_text(self, tmp_path):
        path = save_checkpoint(tmp_path / "c.ckpt", small_checkpoint())
        first, second = path.read_bytes().split(b"\n")[:2]
        assert first == f"{MAGIC} {SCHEMA_VERSION}".encode()
        import json

        meta = json.loads(second)
        assert meta["layers"] == ["netsim"]
        assert meta["payload_len"] > 0

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "nope.ckpt")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(b"NOT-A-CKPT 1\n{}\n")
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(path)

    def test_wrong_schema_version(self, tmp_path):
        path = save_checkpoint(tmp_path / "c.ckpt", small_checkpoint())
        blob = path.read_bytes()
        path.write_bytes(blob.replace(
            f"{MAGIC} {SCHEMA_VERSION}\n".encode(), f"{MAGIC} 99\n".encode(), 1
        ))
        with pytest.raises(CheckpointError, match="schema version 99"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        path = save_checkpoint(tmp_path / "c.ckpt", small_checkpoint())
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_corrupted_payload(self, tmp_path):
        path = save_checkpoint(tmp_path / "c.ckpt", small_checkpoint())
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="integrity digest mismatch"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "payload",
        [
            # the class a version-1 sched snapshot pickled, module since deleted
            b"crepro.sched.policies\nRoundRobinPolicy\n.",
            b"crepro.sched.scheduler\nRoundRobinPolicy\n.",
            b"\x00 not a pickle \xff",
        ],
        ids=["deleted-module", "missing-class", "garbage"],
    )
    def test_unreadable_payload_is_a_checkpoint_error(self, tmp_path, payload):
        ckpt = small_checkpoint()
        ckpt.state_digest  # digested from the good payload, before the swap
        meta = dict(ckpt.meta)
        meta["payload_len"] = len(payload)
        meta["payload_sha256"] = payload_digest(payload)
        path = save_checkpoint(tmp_path / "c.ckpt", StackCheckpoint(meta, payload))
        loaded = load_checkpoint(path)  # the integrity checks pass
        with pytest.raises(CheckpointError, match="cannot be read by this build"):
            loaded.layers()

    def test_unpicklable_state_rejected_at_build(self):
        with pytest.raises(CheckpointError, match="not serializable"):
            StackCheckpoint.build(
                {"netsim": LayerState("netsim", 1, (x for x in range(3)))}
            )


# ----------------------------------------------------------------------
# layer 1: Machine snapshot/restore


class Relay:
    """Stateless perpetual traffic: all dynamics live in the messages.

    Layer 1 owns the transport state only — per-node application state is
    the scheduler layer's to snapshot — so a machine-level round trip
    needs a program whose behaviour is carried entirely by the payloads.
    """

    def init(self, ctx):
        ctx.state = None

    def on_message(self, ctx, sender, payload):
        ctx.send(ctx.neighbours[payload & 3], payload + 1)


def machine_fingerprint(m: Machine) -> str:
    rep = m.report()
    return canonical_digest({
        "sent": rep.sent_total,
        "delivered": rep.delivered_total,
        "queued": rep.queued_series.tolist(),
        "per_step": rep.delivered_series.tolist(),
        "steps": rep.steps,
    })


def storm_machine(**kwargs) -> Machine:
    m = Machine(Torus((4, 4)), Relay(), **kwargs)
    for n in range(m.topology.n_nodes):
        m.inject(n, n)
    return m


class TestMachineSnapshot:
    def test_mid_run_snapshot_resumes_to_parity(self):
        ref = storm_machine()
        ref.run(max_steps=40)
        want = machine_fingerprint(ref)

        first = storm_machine()
        first.run(max_steps=15)
        ckpt = StackCheckpoint.build({"netsim": first.snapshot()})
        # keep mutating the donor: the checkpoint must be detached
        first.run(max_steps=5)
        state = ckpt.layers()["netsim"]

        # max_steps bounds the absolute step counter, so the resumed
        # machine gets the same total budget as the reference
        other = storm_machine()
        other.restore(state)
        other.run(max_steps=40)
        assert machine_fingerprint(other) == want

    def test_faulty_machine_rng_stream_resumes_exactly(self):
        def build():
            return storm_machine(
                faults=FaultModel(0.1, 0.05, rng=random.Random(11)),
                latency=2,
            )

        ref = build()
        ref.run(max_steps=40)
        want = machine_fingerprint(ref)

        first = build()
        first.run(max_steps=13)
        state = first.snapshot()
        other = build()
        other.restore(state)
        other.run(max_steps=40)
        assert machine_fingerprint(other) == want

    def test_topology_mismatch_rejected(self):
        state = storm_machine().snapshot()
        other = Machine(Torus((5, 5)), Relay())
        with pytest.raises(CheckpointError, match="torus2d"):
            other.restore(state)

    def test_fault_configuration_mismatch_rejected(self):
        state = storm_machine().snapshot()
        other = storm_machine(faults=FaultModel(0.1, 0.0, rng=random.Random(1)))
        with pytest.raises(CheckpointError, match="fault injection"):
            other.restore(state)

    def test_checkpoint_sink_cadence_and_validation(self):
        seen = []
        m = storm_machine()
        m.run(max_steps=20, checkpoint_every=6, checkpoint_sink=lambda mm: seen.append(mm.current_step + 1))
        assert seen == [6, 12, 18]
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            storm_machine().run(max_steps=5, checkpoint_every=0, checkpoint_sink=lambda mm: None)
        with pytest.raises(SimulationError):
            storm_machine().run(max_steps=5, checkpoint_every=3)


# ----------------------------------------------------------------------
# full stack: checkpointed + resumed runs (layers 1-5)


def stack_fingerprint(stack: HyperspaceStack, result, report) -> str:
    run = stack.last_run
    layers = stack._compose_layers(run.machine, run.scheduler)
    return canonical_digest({
        "result": result,
        "steps": report.steps,
        "sent": report.sent_total,
        "delivered": report.delivered_total,
        "state": state_digest_of(layers),
    })


def sumrec_stack(**overrides) -> HyperspaceStack:
    cfg = dict(mapper="lbn", status=4, seed=3)
    cfg.update(overrides)
    return HyperspaceStack(Torus((4, 4)), **cfg)


class TestStackResumeParity:
    def test_sumrec_resume_matches_straight_through_at_every_k(self):
        ref = sumrec_stack()
        result, report = ref.run_recursive(calculate_sum, 12)
        want = stack_fingerprint(ref, result, report)
        assert result == sum(range(13))

        snaps = []
        chk = sumrec_stack()
        chk.run_recursive(calculate_sum, 12, checkpoint_every=5,
                          checkpoint_sink=snaps.append)
        assert snaps, "run finished before the first checkpoint boundary"
        for ckpt in snaps:
            resumed = sumrec_stack()
            r2, rep2 = resumed.resume_recursive(calculate_sum, ckpt)
            assert stack_fingerprint(resumed, r2, rep2) == want, (
                f"resume from step {ckpt.step} diverged"
            )

    def test_checkpointing_on_equals_checkpointing_off(self):
        ref = sumrec_stack()
        result, report = ref.run_recursive(calculate_sum, 12)
        want = stack_fingerprint(ref, result, report)

        chk = sumrec_stack()
        r2, rep2 = chk.run_recursive(
            calculate_sum, 12, checkpoint_every=5, checkpoint_sink=lambda c: None
        )
        assert stack_fingerprint(chk, r2, rep2) == want

    def test_faulty_reliable_stack_round_trips_through_disk(self, tmp_path):
        def build():
            return HyperspaceStack(
                Torus((4, 4)), mapper="rr", seed=5,
                drop=0.05, duplicate=0.02, reliable=True,
            )

        ref = build()
        result, report = ref.run_recursive(calculate_sum, 10)
        want = stack_fingerprint(ref, result, report)

        chk = build()
        chk.run_recursive(calculate_sum, 10, checkpoint_every=7,
                          checkpoint_dir=tmp_path)
        files = sorted(tmp_path.glob("checkpoint-*.ckpt"))
        assert files, "no checkpoints written"
        for path in files:
            resumed = build()
            r2, rep2 = resumed.resume_recursive(calculate_sum, path)
            assert stack_fingerprint(resumed, r2, rep2) == want, (
                f"resume from {path.name} diverged"
            )

    def test_reliability_mismatch_rejected_both_ways(self):
        # identical fault configuration on both sides so the only layer
        # difference is the reliability protocol itself
        snaps = []
        protected = HyperspaceStack(Ring(6), seed=2, drop=0.05, reliable=True)
        protected.run_recursive(calculate_sum, 8, checkpoint_every=4,
                                checkpoint_sink=snaps.append)
        plain = HyperspaceStack(Ring(6), seed=2, drop=0.05)
        with pytest.raises(CheckpointError, match="without the reliability layer"):
            plain.resume_recursive(calculate_sum, snaps[0], strict=False)

        plain_snaps = []
        plain2 = HyperspaceStack(Ring(6), seed=2, drop=0.05)
        plain2.run_recursive(calculate_sum, 8, checkpoint_every=4,
                             checkpoint_sink=plain_snaps.append, strict=False)
        protected2 = HyperspaceStack(Ring(6), seed=2, drop=0.05, reliable=True)
        with pytest.raises(CheckpointError, match="no reliability state"):
            protected2.resume_recursive(calculate_sum, plain_snaps[0])

    def test_checkpoint_arguments_validated(self):
        stack = sumrec_stack()
        with pytest.raises(CheckpointError, match="need checkpoint_every"):
            stack.run_recursive(calculate_sum, 5, checkpoint_sink=lambda c: None)
        with pytest.raises(CheckpointError, match="needs a destination"):
            stack.run_recursive(calculate_sum, 5, checkpoint_every=3)
        with pytest.raises(CheckpointError, match="no run has completed"):
            HyperspaceStack(Ring(4)).snapshot()

    def test_snapshot_of_finished_run_carries_meta(self):
        stack = sumrec_stack()
        stack.run_recursive(calculate_sum, 6)
        ckpt = stack.snapshot(meta={"note": "final"})
        assert ckpt.meta["note"] == "final"
        assert ckpt.meta["topology"] == "torus2d(4x4)"
        assert ckpt.meta["n_nodes"] == 16
        assert set(ckpt.meta["layers"]) == {"netsim", "sched"}


# ----------------------------------------------------------------------
# the acceptance scenario: uf20 SAT solves, five configurations,
# resume at early / mid / late checkpoints


def solve_fingerprint(res) -> str:
    return canonical_digest({
        "sat": res.verdict["sat"],
        "model": res.verdict["assignment"] or None,
        "steps": res.report.steps,
        "sent": res.report.sent_total,
        "delivered": res.report.delivered_total,
        "state": res.state_digest,
    })


UF20_CONFIGS = {
    "plain": {},
    "lbn": {"mapper": "lbn", "status": 8},
    "faulty-reliable": {"drop": 0.03, "duplicate": 0.01, "reliable": True},
    "lifo": {"queue_policy": "lifo"},
    "random-bounded": {"queue_policy": "random", "queue_capacity": 64},
}


class TestSatResumeParity:
    @pytest.mark.parametrize("config", sorted(UF20_CONFIGS))
    def test_resume_early_mid_late(self, config, tmp_path):
        cnf = uf20_91_suite(1, seed=2017)[0]
        spec = sat_spec(cnf, simplify="none", seed=1, **UF20_CONFIGS[config])
        topology = Torus((6, 6))
        # reference: checkpointing on (sink only) but never interrupted
        snaps = []
        ref = execute(
            spec.with_(checkpoint_every=10), topology=topology,
            checkpoint_sink=snaps.append,
        )
        assert cnf.is_satisfied_by(dict(ref.verdict["assignment"]))
        assert ref.state_digest is not None
        want = solve_fingerprint(ref)
        assert len(snaps) >= 3, "run too short to pick early/mid/late"

        early, mid, late = snaps[0], snaps[len(snaps) // 2], snaps[-1]
        for ckpt in (early, mid, late):
            path = save_checkpoint(
                tmp_path / f"{config}-{ckpt.step}.ckpt", ckpt
            )
            resumed = execute(spec, topology=topology, resume_from=path)
            assert solve_fingerprint(resumed) == want, (
                f"[{config}] resume from step {ckpt.step} diverged"
            )

    def test_runspec_header_embedded(self, tmp_path):
        cnf = CNF([(1, -2), (2,)], num_vars=2)
        execute(
            sat_spec(
                cnf,
                checkpoint_every=1,
                checkpoint_dir=str(tmp_path),
                simplify="none",
                topology="ring:4",
                seed=9,
            ),
            topology=Ring(4),
        )
        files = sorted(tmp_path.glob("checkpoint-*.ckpt"))
        assert files
        meta = load_checkpoint(files[0]).meta
        # the header is the canonical RunSpec JSON dict: `repro solve
        # --resume` rebuilds the whole run from it via engine.execute
        spec = RunSpec.from_dict(meta["runspec"])
        assert spec.workload == "sat"
        assert spec.topology == "ring:4"
        assert spec.seed == 9 and spec.simplify == "none"
        params = spec.workload_params
        assert params["num_vars"] == 2
        cnf2 = CNF([tuple(c) for c in params["clauses"]], params["num_vars"])
        assert cnf2.num_clauses == 2
        # shard layout is normalised away: checkpoints resume serially
        assert spec.shards == 1

    def test_random_heuristic_rejected(self):
        cnf = CNF([(1,)], num_vars=1)
        with pytest.raises(ApplicationError, match="random"):
            execute(
                sat_spec(cnf, heuristic="random", checkpoint_every=5),
                topology=Ring(4),
                checkpoint_sink=lambda c: None,
            )


# -- what a capture costs ------------------------------------------------
#
# A checkpoint's pickle is the only copy of the run's state: the layers
# hand out live objects and no capture deep-copies them.  The semantic
# digest is worked out on the first read.  The pin was recorded on the
# tree that still deep-copied every layer and digested every capture.

CAPTURED = {"checkpoints": 32, "digests": "8e6d26e71d5c64ad"}


class TestCaptureCost:
    def test_one_pickle_per_capture_and_a_digest_on_read(
        self, monkeypatch, tmp_path
    ):
        def no_deepcopy(*args, **kwargs):
            raise AssertionError("a checkpoint capture deep-copied its state")

        walks = []
        real_normalize = repro.state.normalize

        def counted(obj):
            walks.append(None)
            return real_normalize(obj)

        monkeypatch.setattr(copy, "deepcopy", no_deepcopy)
        monkeypatch.setattr(repro.state, "normalize", counted)
        cnf = uf20_91_suite(1, seed=2017)[0]
        spec = sat_spec(
            cnf, topology="torus:4x4", mapper="lbn", status=16,
            simplify="none", seed=1, checkpoint_every=1,
            max_steps=32, strict=False,
        )
        snaps = []
        execute(spec, checkpoint_sink=snaps.append, want_state_digest=False)
        assert walks == [], "a capture normalized the state nobody read"

        # saving reads the digest: the header carries it
        path = save_checkpoint(tmp_path / "first.ckpt", snaps[0])
        assert walks
        header = load_checkpoint(path).meta["state_digest"]

        digests = [ckpt.state_digest for ckpt in snaps]
        assert header == digests[0]
        assert digests == [state_digest_of(ckpt.layers()) for ckpt in snaps]
        assert {
            "checkpoints": len(snaps), "digests": canonical_digest(digests),
        } == CAPTURED

    def test_a_run_normalizes_each_layer_once_for_both_digests(
        self, monkeypatch
    ):
        walked = []
        real_normalize = repro.engine.normalize

        def counted(state):
            walked.append(state.layer)
            return real_normalize(state)

        monkeypatch.setattr(repro.engine, "normalize", counted)
        spec = RunSpec(
            workload="fib", workload_params={"n": 6}, topology="torus:4x4"
        )
        run = execute(spec, telemetry=True, want_state_digest=True)
        assert sorted(walked) == ["netsim", "sched", "telemetry"]
        assert run.state_digest != run.semantic_digest


# -- a checkpoint written by an older tree ---------------------------------
#
# ``tests/data/sat_lbn_ring4_step14.ckpt`` was written before the bitset
# ``CNF`` (whose sub-formulas pickle as root clauses plus an assignment):
# uf20 ``uf20_91_suite(1, 2017)[0]``, ``mapper="lbn"``, ``status=16``,
# ``ring:4``, ``simplify="none"``, ``seed=1``, the first checkpoint of
# ``checkpoint_every=14``.  Its sub-formulas are the old pickled form, a
# ``(clauses, num_vars)`` state each.  The literals below are that tree's
# own straight-through run; the file is a pickle (see the security note in
# docs/checkpointing.md).

OLD_CHECKPOINT = Path(__file__).parent / "data" / "sat_lbn_ring4_step14.ckpt"
OLD_FINAL = {"state": "d3662a28d7683db6", "steps": 582, "sent": 2301, "sat": True}


def test_checkpoint_of_an_older_tree_resumes_to_its_digest():
    meta = load_checkpoint(OLD_CHECKPOINT).meta
    spec = RunSpec.from_dict(meta["runspec"]).with_(checkpoint_every=None)
    resumed = execute(spec, resume_from=OLD_CHECKPOINT)
    cnf = cnf_of(spec.workload_params)
    assert cnf.is_satisfied_by(dict(resumed.verdict["assignment"]))
    assert {
        "state": resumed.state_digest,
        "steps": resumed.report.steps,
        "sent": resumed.report.sent_total,
        "sat": resumed.verdict["sat"],
    } == OLD_FINAL
