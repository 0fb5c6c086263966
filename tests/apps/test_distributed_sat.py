"""Tests for the distributed DPLL solver (paper Listing 4) on the stack."""

import random

import pytest

from repro.apps.sat import (
    CNF,
    SatProblem,
    brute_force_solve,
    dpll_solve,
    is_sat,
    make_solve_sat,
    uniform_random_ksat,
)
from repro.engine import RunSpec, execute
from repro.errors import ApplicationError
from repro.topology import FullyConnected, Hypercube, Ring, Torus


def solve(cnf, topology, **knobs):
    spec = RunSpec(workload="sat", workload_params=cnf.to_params(), **knobs)
    return execute(spec, topology=topology)


def model_satisfies(cnf, run):
    return cnf.is_satisfied_by(dict(run.verdict["assignment"]))


class TestSatProblem:
    def test_extend(self):
        p = SatProblem(CNF([(1,)]))
        q = p.extend(1, True)
        assert q.assignment == ((1, True),)
        assert p.assignment == ()

    def test_as_dict(self):
        p = SatProblem(CNF([]), ((1, True), (2, False)))
        assert p.as_dict() == {1: True, 2: False}

    def test_is_sat_predicate(self):
        assert is_sat({})
        assert is_sat({1: True})
        assert not is_sat(None)


class TestMakeSolveSat:
    def test_invalid_hint_mode(self):
        with pytest.raises(ApplicationError):
            make_solve_sat(hint_mode="psychic")

    def test_invalid_simplify(self):
        with pytest.raises(ApplicationError):
            make_solve_sat(simplify="sometimes")

    def test_accepts_bare_cnf_argument(self):
        fn = make_solve_sat()
        gen = fn(CNF([]))
        op = next(gen)
        from repro.recursion import Result

        assert isinstance(op, Result)
        assert op.value == {}


class TestVerdictsAgainstReferences:
    @pytest.mark.parametrize("simplify", ["none", "single", "fixpoint"])
    def test_matches_brute_force_small(self, simplify):
        rng = random.Random(21)
        for _ in range(6):
            cnf = uniform_random_ksat(9, 38, 3, rng)
            expected = brute_force_solve(cnf) is not None
            res = solve(cnf, Torus((4, 4)), simplify=simplify, seed=1)
            assert res.verdict["sat"] == expected
            if expected:
                assert model_satisfies(cnf, res)

    def test_matches_sequential_on_suite(self, small_sat_suite):
        for i, cnf in enumerate(small_sat_suite):
            seq = dpll_solve(cnf)
            dist = solve(cnf, Torus((5, 5)), seed=10 + i)
            assert dist.verdict["sat"] == seq.satisfiable
            if seq.satisfiable:
                assert model_satisfies(cnf, dist)

    @pytest.mark.parametrize(
        "topo",
        [Ring(8), Torus((3, 3)), Torus((2, 2, 2)), Hypercube(3), FullyConnected(9)],
        ids=lambda t: t.describe(),
    )
    def test_verdict_independent_of_topology(self, topo, small_sat_suite):
        cnf = small_sat_suite[0]
        res = solve(cnf, topo, seed=4)
        assert res.verdict["sat"]
        assert model_satisfies(cnf, res)

    @pytest.mark.parametrize("mapper", ["rr", "lbn", "random", "hint"])
    def test_verdict_independent_of_mapper(self, mapper, small_sat_suite):
        cnf = small_sat_suite[1]
        res = solve(
            cnf, Torus((4, 4)), mapper=mapper, seed=4,
            hint_mode="clauses" if mapper == "hint" else None,
        )
        assert res.verdict["sat"]
        assert model_satisfies(cnf, res)

    def test_unsat_detection(self):
        rng = random.Random(2)
        found = 0
        while found < 2:
            cnf = uniform_random_ksat(8, 60, 3, rng)
            if brute_force_solve(cnf) is None:
                res = solve(cnf, Torus((3, 3)), seed=1)
                assert not res.verdict["sat"]
                found += 1


class TestDeterminism:
    def test_same_seed_same_trace(self, small_sat_suite):
        cnf = small_sat_suite[0]
        a = solve(cnf, Torus((4, 4)), mapper="lbn", seed=77)
        b = solve(cnf, Torus((4, 4)), mapper="lbn", seed=77)
        assert a.report.computation_time == b.report.computation_time
        assert a.report.sent_total == b.report.sent_total
        assert (a.report.node_activity == b.report.node_activity).all()

    def test_different_seed_changes_lbn_trace(self, small_sat_suite):
        cnf = small_sat_suite[0]
        a = solve(cnf, Torus((4, 4)), mapper="lbn", seed=77)
        b = solve(cnf, Torus((4, 4)), mapper="lbn", seed=78)
        # tie-breaking differs; traces are overwhelmingly unlikely to match
        assert (
            a.report.computation_time != b.report.computation_time
            or (a.report.node_activity != b.report.node_activity).any()
        )


class TestDrainSemantics:
    def test_drain_runs_to_quiescence(self, small_sat_suite):
        res = solve(
            small_sat_suite[0], Torus((4, 4)), seed=1, drain=True
        )
        assert res.report.quiescent

    def test_no_drain_halts_early(self, small_sat_suite):
        cnf = small_sat_suite[0]
        drain = solve(cnf, Torus((4, 4)), seed=1, simplify="none")
        quick = solve(
            cnf, Torus((4, 4)), seed=1, simplify="none", drain=False
        )
        assert quick.report.steps < drain.report.steps
        assert quick.verdict["sat"] == drain.verdict["sat"]

    def test_hint_mode_vars(self, small_sat_suite):
        cnf = small_sat_suite[0]
        res = solve(cnf, Torus((4, 4)), mapper="hint", hint_mode="vars", seed=1)
        assert model_satisfies(cnf, res)


class TestSimplifyModesWorkload:
    def test_simplify_none_generates_most_work(self, small_sat_suite):
        cnf = small_sat_suite[0]
        sent = {}
        for mode in ("none", "single", "fixpoint"):
            res = solve(cnf, Torus((6, 6)), simplify=mode, seed=1)
            sent[mode] = res.report.sent_total
        assert sent["none"] > sent["single"] > sent["fixpoint"]


class TestCustomHeuristicGuard:
    """A branching literal whose variable is gone used to unfold forever:
    both children equalled their parent."""

    PARAMS = {"clauses": [[1, 2], [-1, 2], [3, -2]], "num_vars": 4}

    def run(self, heuristic_fn):
        spec = RunSpec(workload="sat", workload_params=self.PARAMS,
                       topology="ring:4", heuristic="custom", simplify="none",
                       max_steps=2000)
        return execute(spec, heuristic_fn=heuristic_fn)

    def test_absent_variable_raises_within_one_branch_step(self):
        calls = []

        def absent(cnf):
            calls.append(cnf)
            return 4

        with pytest.raises(ApplicationError, match="literal 4, whose variable"):
            self.run(absent)
        assert len(calls) == 1

    def test_absent_polarity_of_a_present_variable_is_legal(self):
        # the complement of a pure literal never occurs; its variable does
        chosen_absent = []

        def contrary(cnf):
            pures = cnf.pure_literals()
            if pures:
                chosen_absent.append(-pures[0])
                return -pures[0]
            return min(cnf.occurrences(), key=abs)

        run = self.run(contrary)
        assert chosen_absent
        assert run.completed and run.verdict["sat"]
        assert CNF(**self.PARAMS).is_satisfied_by(dict(run.verdict["assignment"]))
