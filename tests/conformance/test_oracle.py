"""The differential oracle, exercised with injected runner stubs.

Real end-to-end oracle runs live in ``test_corpus.py``; here the runner
is stubbed so each comparison rule and applicability rule is pinned
directly, without paying for simulations.
"""

import pytest

from repro.conformance.oracle import MODE_NAMES, Discrepancy, check_config
from repro.conformance.space import DEFAULT_CONFIG
from repro.conformance.workloads import RunOutcome, applicable_modes
from repro.engine import checkpointable, shardable

SAT = DEFAULT_CONFIG.with_(
    workload="sat",
    workload_params={"num_vars": 6, "num_clauses": 14, "formula_seed": 0},
)


def outcome(mode, **overrides):
    """A healthy RunOutcome; overrides inject the disagreement under test."""
    fields = dict(
        mode=mode,
        completed=True,
        verdict={"kind": "fib", "value": 5},
        schedule_digest="sched-0",
        state_digest="state-0",
        counters={"l1": {"sent": 10}},
    )
    fields.update(overrides)
    return RunOutcome(**fields)


def stub_runner(**per_mode):
    """A run_mode lookalike serving canned outcomes (None = mode moot)."""

    def runner(config, mode, *, shard_backend="inline", baseline=None):
        return per_mode.get(mode, outcome(mode))

    return runner


class TestApplicability:
    def test_serial_always_applies(self):
        for config in (DEFAULT_CONFIG, SAT):
            assert applicable_modes(config)[0] == "serial"

    def test_sharded_needs_shards(self):
        assert "sharded" not in applicable_modes(DEFAULT_CONFIG)
        assert "sharded" in applicable_modes(DEFAULT_CONFIG.with_(shards=2))

    def test_random_heuristic_is_serial_only(self):
        config = SAT.with_(heuristic="random", shards=4, checkpoint_every=5)
        assert not shardable(config)
        assert not checkpointable(config)
        modes = applicable_modes(config)
        assert "sharded" not in modes and "resume" not in modes

    def test_traversal_never_resumes(self):
        config = DEFAULT_CONFIG.with_(
            workload="traversal", workload_params={}, checkpoint_every=5
        )
        assert not checkpointable(config)
        assert "resume" not in applicable_modes(config)

    def test_resume_needs_a_checkpoint_step(self):
        assert "resume" not in applicable_modes(DEFAULT_CONFIG)
        assert "resume" in applicable_modes(DEFAULT_CONFIG.with_(checkpoint_every=5))

    def test_fault_free_needs_protected_faults(self):
        assert "fault_free" not in applicable_modes(DEFAULT_CONFIG)
        assert "fault_free" not in applicable_modes(DEFAULT_CONFIG.with_(drop=0.1))
        assert "fault_free" in applicable_modes(
            DEFAULT_CONFIG.with_(drop=0.1, reliable=True)
        )

    def test_reference_skips_unprotected_faulty_runs(self):
        assert "reference" in applicable_modes(DEFAULT_CONFIG)
        assert "reference" in applicable_modes(
            DEFAULT_CONFIG.with_(drop=0.1, reliable=True)
        )
        assert "reference" not in applicable_modes(DEFAULT_CONFIG.with_(drop=0.1))


class TestComparisons:
    CONFIG = DEFAULT_CONFIG.with_(shards=2, checkpoint_every=5)

    def check(self, runner, modes=None):
        return check_config(self.CONFIG, modes=modes, runner=runner)

    def test_agreement_is_ok(self):
        result = self.check(stub_runner())
        assert result.ok
        assert result.modes_run == ["serial", "sharded", "resume", "reference"]

    def test_verdict_disagreement_wins_over_digests(self):
        bad = outcome("sharded", verdict={"kind": "fib", "value": 6},
                      schedule_digest="other", state_digest="other")
        result = self.check(stub_runner(sharded=bad))
        assert result.discrepancy.mode == "sharded"
        assert result.discrepancy.kind == "verdict"

    def test_schedule_digest_disagreement(self):
        bad = outcome("sharded", schedule_digest="sched-X")
        disc = self.check(stub_runner(sharded=bad)).discrepancy
        assert (disc.mode, disc.kind) == ("sharded", "schedule_digest")
        assert "sched-X" in disc.detail

    def test_state_digest_disagreement(self):
        bad = outcome("resume", state_digest="state-X")
        disc = self.check(stub_runner(resume=bad)).discrepancy
        assert (disc.mode, disc.kind) == ("resume", "state_digest")

    def test_counters_compared_for_sharded_only(self):
        # a resumed run's metrics cover only the post-resume suffix by
        # design, so counter drift is a bug for sharded but not for resume
        drifted = {"l1": {"sent": 99}}
        ok = self.check(stub_runner(resume=outcome("resume", counters=drifted)))
        assert ok.ok
        disc = self.check(
            stub_runner(sharded=outcome("sharded", counters=drifted))
        ).discrepancy
        assert (disc.mode, disc.kind) == ("sharded", "counters")
        assert "l1" in disc.detail

    def test_none_outcome_means_skipped_not_compared(self):
        result = self.check(stub_runner(resume=None))
        assert result.ok
        assert "resume" not in result.modes_run
        assert "sharded" in result.modes_run

    def test_runner_exception_is_an_error_discrepancy(self):
        def runner(config, mode, *, shard_backend="inline", baseline=None):
            if mode == "sharded":
                raise RuntimeError("shard exploded")
            return outcome(mode)

        disc = self.check(runner).discrepancy
        assert (disc.mode, disc.kind) == ("sharded", "error")
        assert "shard exploded" in disc.detail

    def test_serial_exception_is_an_error_discrepancy(self):
        def runner(config, mode, *, shard_backend="inline", baseline=None):
            raise RuntimeError("nothing works")

        result = self.check(runner)
        assert (result.discrepancy.mode, result.discrepancy.kind) == (
            "serial", "error")
        assert result.modes_run == []

    def test_modes_filter_restricts_comparisons(self):
        # resume would disagree, but the filter excludes it entirely
        bad = outcome("resume", verdict={"kind": "fib", "value": 7})
        result = self.check(stub_runner(resume=bad), modes=["sharded"])
        assert result.ok
        assert result.modes_run == ["serial", "sharded"]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown modes"):
            self.check(stub_runner(), modes=["serial", "warp"])

    def test_mode_names_cover_the_stub_universe(self):
        assert set(MODE_NAMES) == {
            "serial", "sharded", "resume", "fault_free", "reference"}


class TestFaultFreeComparison:
    CONFIG = DEFAULT_CONFIG.with_(
        workload="sat",
        workload_params={"num_vars": 6, "num_clauses": 14, "formula_seed": 0},
        drop=0.1, reliable=True,
    )

    def sat_outcome(self, mode, sat=True, completed=True):
        verdict = {"kind": "sat", "sat": sat}
        if sat:
            verdict["assignment"] = [(1, True)]
        return outcome(mode, completed=completed, verdict=verdict)

    def check(self, runner):
        # restrict to fault_free: the stub verdicts would fail the real
        # reference solver, which is not what is under test here
        return check_config(self.CONFIG, modes=["fault_free"], runner=runner)

    def test_coarse_parity_ignores_the_witness(self):
        # different satisfying assignments are fine; sat/unsat must agree
        base = self.sat_outcome("serial")
        free = self.sat_outcome("fault_free")
        free.verdict["assignment"] = [(1, False)]
        result = self.check(stub_runner(serial=base, fault_free=free))
        assert result.ok
        assert result.modes_run == ["serial", "fault_free"]

    def test_sat_flip_is_a_verdict_discrepancy(self):
        disc = self.check(stub_runner(
            serial=self.sat_outcome("serial", sat=True),
            fault_free=self.sat_outcome("fault_free", sat=False),
        )).discrepancy
        assert (disc.mode, disc.kind) == ("fault_free", "verdict")

    def test_incomplete_run_skips_the_comparison(self):
        result = self.check(stub_runner(
            serial=self.sat_outcome("serial", completed=False),
            fault_free=self.sat_outcome("fault_free", sat=False),
        ))
        assert result.ok
        assert "fault_free" not in result.modes_run

    def test_clean_link_twin_drops_the_retry_cap_with_the_protocol(self):
        # the real runner: retry_limit without reliable=True is a SpecError,
        # so the derived clean-link spec must clear both
        result = check_config(
            DEFAULT_CONFIG.with_(drop=0.05, reliable=True, retry_limit=30))
        assert result.ok, result.discrepancy
        assert "fault_free" in result.modes_run


class TestDiscrepancySerialisation:
    def test_round_trip(self):
        disc = Discrepancy(SAT.with_(shards=3), "sharded", "counters", "l1: 1 vs 2")
        assert Discrepancy.from_dict(disc.to_dict()) == disc
