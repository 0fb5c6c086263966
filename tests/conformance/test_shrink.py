"""The shrinker, proven against deliberately-broken oracle stubs.

Each stub encodes "the bug": a predicate that is True exactly when a
config still triggers it.  The shrinker must reduce an elaborate failing
config to the canonical minimal one — every dimension at its default
except the ones the bug actually needs.
"""

from repro.conformance.shrink import shrink_config
from repro.conformance.space import DEFAULT_CONFIG, sample_list
from repro.engine import cnf_of
from repro.workloads import WORKLOADS


def elaborate(**changes):
    """A deliberately ornate config: everything off-default."""
    base = DEFAULT_CONFIG.with_(
        workload="nqueens",
        workload_params={"n": 6},
        topology="torus2d:3x3",
        mapper="lbn",
        status=4,
        drain=False,
        seed=321,
        drop=0.05,
        duplicate=0.02,
        reliable=True,
        shards=3,
        cancellation=True,
        checkpoint_every=10,
    )
    return base.with_(**changes)


class TestDimensionMinimisation:
    def test_single_guilty_dimension_survives_alone(self):
        # the "bug" needs exactly one off-default dimension: the mapper
        shrunk = shrink_config(elaborate(), lambda c: c.mapper == "lbn")
        assert shrunk == DEFAULT_CONFIG.with_(mapper="lbn")

    def test_two_interacting_dimensions_both_survive(self):
        failing = lambda c: c.shards == 3 and c.cancellation
        shrunk = shrink_config(elaborate(), failing)
        assert shrunk == DEFAULT_CONFIG.with_(shards=3, cancellation=True)

    def test_a_sampled_point_shrinks_on_the_rows_the_sampler_used_to_skip(self):
        # every row is a dimension: a whole-spec point collapses to the
        # default config plus exactly the two fields the "bug" reads
        failing = lambda c: c.latency > 0 and c.scheduler_budget == 1
        point = next(c for c in sample_list(9, 200) if failing(c))
        shrunk = shrink_config(point, failing)
        assert shrunk == DEFAULT_CONFIG.with_(
            latency=point.latency, scheduler_budget=1)

    def test_default_config_failure_shrinks_to_default(self):
        shrunk = shrink_config(elaborate(), lambda c: True)
        assert shrunk == DEFAULT_CONFIG

    def test_non_failing_config_is_returned_unchanged(self):
        config = elaborate()
        assert shrink_config(config, lambda c: False) == config


class TestSizeMinimisation:
    def test_fib_n_walks_down(self):
        config = DEFAULT_CONFIG.with_(workload_params={"n": 11})
        shrunk = shrink_config(config, lambda c: c.workload_params["n"] >= 7)
        assert shrunk == DEFAULT_CONFIG.with_(workload_params={"n": 7})

    def test_canonical_default_params_beat_smaller_ones(self):
        # the bug reproduces at the workload's default size too, so the
        # default wins outright even though smaller n would also fail
        config = elaborate(workload="fib", workload_params={"n": 11})
        shrunk = shrink_config(config, lambda c: c.mapper == "lbn")
        assert shrunk == DEFAULT_CONFIG.with_(mapper="lbn")

    def test_sat_recipe_materialises_and_ddmins_to_one_clause(self):
        config = elaborate(
            workload="sat",
            workload_params={"num_vars": 6, "num_clauses": 30, "formula_seed": 4},
        )

        def compact(clause):
            renumber = {v: i + 1 for i, v in
                        enumerate(sorted({abs(l) for l in clause}))}
            return tuple(sorted(
                renumber[abs(l)] * (1 if l > 0 else -1) for l in clause))

        # pick a guilty clause the workload's *default* formula does not
        # contain (so "canonical params win outright" cannot short-circuit
        # the ddmin path this test is about); all seeds are pinned, so the
        # choice is deterministic
        default_cnf = cnf_of(WORKLOADS["sat"].default_params)
        default_clauses = {tuple(sorted(c)) for c in default_cnf.clauses}
        default_clauses |= {compact(c) for c in default_cnf.clauses}
        target = next(
            tuple(c) for c in cnf_of(config.workload_params).clauses
            if tuple(sorted(c)) not in default_clauses
            and compact(c) not in default_clauses
        )

        def failing(c):
            if c.workload != "sat":
                return False
            clauses = {tuple(sorted(cl))
                       for cl in cnf_of(c.workload_params).clauses}
            # "the bug" trips while the guilty clause is present, exactly
            # or in variable-compacted form
            return tuple(sorted(target)) in clauses or compact(target) in clauses

        shrunk = shrink_config(config, failing, max_evals=600)
        clauses = [tuple(cl) for cl in shrunk.workload_params["clauses"]]
        assert len(clauses) == 1
        assert tuple(sorted(clauses[0])) == compact(target)
        # variables were renumbered down to the ones the clause uses
        assert shrunk.workload_params["num_vars"] == len(
            {abs(l) for l in clauses[0]})
        # everything else collapsed to defaults
        assert shrunk.with_(
            workload=DEFAULT_CONFIG.workload,
            workload_params=DEFAULT_CONFIG.workload_params,
        ) == DEFAULT_CONFIG


class TestBudget:
    def test_predicate_calls_are_bounded(self):
        calls = []

        def failing(c):
            calls.append(c)
            return True

        shrink_config(elaborate(), failing, max_evals=10)
        assert len(calls) <= 10

    def test_exhausted_budget_still_returns_a_failing_config(self):
        # with a tiny budget the sweep may not finish, but the result must
        # still satisfy the predicate (it only ever keeps failing configs)
        failing = lambda c: c.mapper == "lbn"
        shrunk = shrink_config(elaborate(), failing, max_evals=4)
        assert failing(shrunk)
