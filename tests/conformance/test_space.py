"""Config-space sampler: determinism, serialisation, formula building."""

from collections import Counter
from dataclasses import fields

import pytest

from repro.conformance.space import (
    DEFAULT_CONFIG,
    DIMENSIONS,
    SPACE,
    UNSAMPLED,
    sample_configs,
    sample_list,
)
from repro.conformance.workloads import applicable_modes
from repro.engine import RunSpec, cnf_of, violations
from repro.errors import ApplicationError
from repro.topology import topology_from_spec
from repro.workloads import WORKLOADS


class TestSamplerDeterminism:
    def test_same_seed_same_stream(self):
        assert sample_list(7, 40) == sample_list(7, 40)

    def test_prefix_stability(self):
        # a bigger budget extends the stream, it does not reshuffle it
        assert sample_list(7, 60)[:40] == sample_list(7, 40)

    def test_different_seeds_differ(self):
        assert sample_list(1, 40) != sample_list(2, 40)

    def test_generator_is_lazy_and_sized(self):
        gen = sample_configs(3, 10)
        assert iter(gen) is gen
        assert len(list(gen)) == 10


class TestTheTableIsTheWholeSpec:
    def test_every_field_is_a_row_or_has_a_reason(self):
        # a new RunSpec field fails here until someone classifies it
        assert set(SPACE) | set(UNSAMPLED) == {f.name for f in fields(RunSpec)}
        assert not set(SPACE) & set(UNSAMPLED)
        assert DIMENSIONS == tuple(SPACE)
        assert all(UNSAMPLED.values())

    def test_every_value_alone_breaks_no_rule(self):
        for name, values in SPACE.items():
            for value in set(values):
                changes = {name: value}
                if name == "workload":
                    changes["workload_params"] = WORKLOADS[value].default_params
                if name == "retry_limit":
                    changes["reliable"] = True  # the one two-row rule
                assert violations(DEFAULT_CONFIG.with_(**changes)) == [], changes

    def test_every_point_breaks_no_rule_but_the_two_the_oracle_owns(self):
        for seed in (5, 9):
            for point in sample_list(seed, 200):
                serial = point.with_(shards=1, checkpoint_every=None)
                assert violations(serial) == [], point.describe()

    def test_seed_9_reaches_every_value_of_every_row(self):
        points = sample_list(9, 200)
        for name, values in SPACE.items():
            if name != "seed":
                assert {getattr(p, name) for p in points} == set(values), name

    def test_seed_9_keeps_every_mode_busy(self):
        # what blocks sharding (work sharing, non-FIFO inboxes) is weighted
        # down in the table so the mode pairs keep their share of points
        modes = Counter(m for p in sample_list(9, 200) for m in applicable_modes(p))
        assert modes["serial"] == 200
        assert min(modes["sharded"], modes["resume"], modes["fault_free"]) >= 60
        assert modes["reference"] >= 150


class TestSampledConfigsAreValid:
    def test_every_sample_is_buildable(self):
        for config in sample_list(5, 60):
            topo = topology_from_spec(config.topology)
            assert topo.n_nodes >= 2  # layer-5 mappers need a neighbour
            assert config.shards >= 1
            assert 0.0 <= config.drop <= 0.5
            assert 0.0 <= config.duplicate <= 0.5
            assert config.workload in SPACE["workload"]
            if config.workload == "sat":
                cnf = cnf_of(config.workload_params)
                assert cnf.clauses

    def test_faulty_reliable_combinations_all_appear(self):
        configs = sample_list(5, 120)
        faulty = [c for c in configs if c.drop or c.duplicate]
        assert faulty
        assert any(c.reliable for c in faulty)
        assert any(not c.reliable for c in faulty)
        assert any(not (c.drop or c.duplicate) for c in configs)

    def test_every_workload_and_mode_dimension_is_reached(self):
        configs = sample_list(5, 120)
        assert {c.workload for c in configs} == set(SPACE["workload"])
        assert any(c.shards > 1 for c in configs)
        assert any(c.checkpoint_every is not None for c in configs)


class TestFuzzPointSerialisation:
    def test_round_trip_identity(self):
        for config in sample_list(11, 40):
            assert RunSpec.from_dict(config.to_dict()) == config

    def test_unknown_key_rejected(self):
        data = DEFAULT_CONFIG.to_dict()
        data["warp_factor"] = 9
        with pytest.raises(ApplicationError):
            RunSpec.from_dict(data)

    def test_with_replaces_only_named_fields(self):
        changed = DEFAULT_CONFIG.with_(mapper="lbn")
        assert changed.mapper == "lbn"
        assert changed.with_(mapper=DEFAULT_CONFIG.mapper) == DEFAULT_CONFIG

    def test_describe_mentions_the_workload(self):
        for config in sample_list(2, 10):
            text = config.describe()
            assert config.workload in text
            assert config.topology in text
        # generated from the dataclass defaults: name=value, off-default only
        assert "=" not in RunSpec().describe()
        named = RunSpec().with_(latency=3, cancellation=True).describe()
        assert sorted(p for p in named.split() if "=" in p) == [
            "cancellation=True", "latency=3"]

    def test_default_config_sits_at_every_dimension_default(self):
        # the shrinker's fixpoint target: defaulting any dimension of the
        # default config must be a no-op
        for dim in DIMENSIONS:
            assert hasattr(DEFAULT_CONFIG, dim)
        assert DEFAULT_CONFIG.with_() == DEFAULT_CONFIG


class TestBuildCnf:
    def test_recipe_is_deterministic(self):
        params = {"num_vars": 6, "num_clauses": 14, "formula_seed": 3}
        a, b = cnf_of(params), cnf_of(params)
        assert a.clauses == b.clauses
        assert a.num_vars == b.num_vars == 6

    def test_formula_seed_changes_the_formula(self):
        base = {"num_vars": 6, "num_clauses": 14}
        one = cnf_of({**base, "formula_seed": 1})
        two = cnf_of({**base, "formula_seed": 2})
        assert one.clauses != two.clauses

    def test_explicit_clauses_pass_through(self):
        cnf = cnf_of({"clauses": [[1, -2], [2]], "num_vars": 2})
        assert list(cnf.clauses) == [(1, -2), (2,)]
        assert cnf.num_vars == 2

    def test_tiny_var_count_clamps_clause_width(self):
        cnf = cnf_of({"num_vars": 2, "num_clauses": 6, "formula_seed": 0})
        assert all(len(c) <= 2 for c in cnf.clauses)
        assert all(abs(l) <= 2 for c in cnf.clauses for l in c)
