"""Executable mirror of docs/writing-a-solver.md.

Every code snippet in the tutorial lives here verbatim, so the document is
continuously verified against the real API.
"""

from typing import NamedTuple, Tuple

import pytest

from repro import HyperspaceStack, Torus
from repro.recursion import Call, Result, Sync


class MisProblem(NamedTuple):
    n: int
    edges: Tuple[Tuple[int, int], ...]
    alive: Tuple[int, ...]
    chosen: Tuple[int, ...] = ()


def mis(problem: MisProblem):
    n, edges, alive, chosen = problem
    if not alive:
        yield Result(chosen)
        return
    v, rest = alive[0], alive[1:]
    neighbours = {b for a, b in edges if a == v} | {a for a, b in edges if b == v}
    exclude = MisProblem(n, edges, rest, chosen)
    include = MisProblem(
        n, edges, tuple(u for u in rest if u not in neighbours), chosen + (v,)
    )
    yield Call(exclude, hint=float(len(exclude.alive)))
    yield Call(include, hint=float(len(include.alive)))
    a, b = yield Sync()
    yield Result(a if len(a) >= len(b) else b)


def sequential_mis(n, edges):
    best = ()
    for mask in range(1 << n):
        chosen = [v for v in range(n) if mask >> v & 1]
        ok = all(not (u in chosen and v in chosen) for u, v in edges)
        if ok and len(chosen) > len(best):
            best = tuple(chosen)
    return best


def independent(edges, chosen):
    chosen = set(chosen)
    return all(not (u in chosen and v in chosen) for u, v in edges)


class TestTutorialSolver:
    def test_c5_example_from_the_tutorial(self):
        graph = MisProblem(
            5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)), alive=(0, 1, 2, 3, 4)
        )
        stack = HyperspaceStack(Torus((4, 4)), mapper="lbn")
        best, report = stack.run_recursive(mis, graph)
        assert len(best) == 2
        assert independent(graph.edges, best)
        assert report.sent_total > 0

    def test_empty_graph(self):
        graph = MisProblem(4, (), alive=(0, 1, 2, 3))
        stack = HyperspaceStack(Torus((3, 3)))
        best, _ = stack.run_recursive(mis, graph)
        assert sorted(best) == [0, 1, 2, 3]

    def test_complete_graph(self):
        edges = tuple((u, v) for u in range(4) for v in range(u + 1, 4))
        graph = MisProblem(4, edges, alive=(0, 1, 2, 3))
        stack = HyperspaceStack(Torus((3, 3)))
        best, _ = stack.run_recursive(mis, graph)
        assert len(best) == 1

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_sequential_on_random_graphs(self, seed):
        import random

        rng = random.Random(seed)
        n = 7
        edges = tuple(
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.4
        )
        graph = MisProblem(n, edges, alive=tuple(range(n)))
        stack = HyperspaceStack(Torus((4, 4)), seed=seed)
        best, _ = stack.run_recursive(mis, graph)
        assert len(best) == len(sequential_mis(n, edges))
        assert independent(edges, best)

    def test_tutorial_knobs_all_accepted(self):
        graph = MisProblem(4, ((0, 1),), alive=(0, 1, 2, 3))
        for kw in (
            {"mapper": "rr"},
            {"mapper": "hint"},
            {"status": 8, "mapper": "lbn"},
            {"cancellation": True},
            {"share_threshold": 4},
        ):
            stack = HyperspaceStack(Torus((3, 3)), **kw)
            best, _ = stack.run_recursive(mis, graph)
            assert len(best) == 3


class TestTutorialWorkloadRecord:
    """Section 8: MIS registered as a workload record, run via execute()."""

    @pytest.fixture
    def mis_workload(self):
        from repro.workloads import WORKLOADS, Program, Workload

        def check_mis_params(params):
            if isinstance(params.get("n"), int) and isinstance(params.get("edges"), list):
                return None
            return (
                "workload 'mis' needs workload_params {'n', 'edges'}, "
                f"got {sorted(params)}"
            )

        def build_mis(spec, **_attachments):
            n = spec.workload_params["n"]
            edges = tuple(tuple(e) for e in spec.workload_params["edges"])
            return Program(fn=mis, args=MisProblem(n, edges, alive=tuple(range(n))))

        def reference_mis(params, _topology):
            best = sequential_mis(params["n"], [tuple(e) for e in params["edges"]])
            return {"kind": "mis", "size": len(best)}

        WORKLOADS["mis"] = Workload(
            name="mis",
            default_params={"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]},
            check_params=check_mis_params,
            build=build_mis,
            verdict=lambda raw: {"chosen": sorted(raw)},
            coarse=lambda verdict: {"kind": "mis", "size": len(verdict["chosen"])},
            reference=reference_mis,
        )
        try:
            yield WORKLOADS["mis"]
        finally:
            del WORKLOADS["mis"]

    def test_record_runs_serial_and_sharded(self, mis_workload):
        from repro import RunSpec, execute

        spec = RunSpec(workload="mis", workload_params=mis_workload.default_params,
                       topology="torus2d:4x4", mapper="lbn")
        serial = execute(spec)
        sharded = execute(spec.with_(shards=2, shard_backend="inline"))
        assert serial.verdict == sharded.verdict
        assert serial.verdict["kind"] == "mis" and len(serial.verdict["chosen"]) == 2
        assert serial.schedule_digest() == sharded.schedule_digest()
        assert mis_workload.verify(spec.workload_params, None, serial.verdict) is None

    def test_validator_speaks_for_the_record(self, mis_workload):
        from repro import RunSpec
        from repro.engine import violations

        bad = violations(RunSpec(workload="mis", workload_params={"n": 5},
                                 topology="ring:4"))
        assert bad[0][0] == "workload-params"
        assert "needs workload_params" in bad[0][1]

    def test_unregistered_name_is_unknown_again(self):
        from repro import RunSpec
        from repro.engine import violations

        codes = [code for code, _ in violations(RunSpec(workload="mis"))]
        assert codes[0] == "workload"
