"""The seven workloads of the end-to-end benchmark.

Every workload is a batch of :class:`~repro.engine.RunSpec` built from the
benchmark seed — the program under test receives only the specs — plus,
per spec, a check of the result against a sequential reference.  Each
exists because it loads the stack differently; ``why`` says how, and
``README.md`` lists which layer metric should move which end-to-end metric
on which workload.

SAT batches are uf20-91 stand-ins from ``uf20_91_suite(n, seed)``, run the
way Figures 4 and 5 run them: ``simplify="none"``,
``heuristic="max_occurrence"``, drain on, machine seed ``seed + i``.

Batch sizes are cut from the issue's (30/20 formulas, fib(21), a 20000-long
chain, one 30-variable shard formula) so that a pass takes 0.7-1.1 s and a
run of the benchmark fits five or more passes into its measuring window; no
workload was renamed or dropped.  ``smoke`` builds toy sizes for the harness test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.apps.fib import sequential_fib
from repro.apps.sat import dpll_solve, uf20_91_suite
from repro.apps.sumrec import closed_form_sum
from repro.engine import RunSpec, cnf_of

__all__ = ["Case", "WORKLOADS", "Workload"]

#: a result check: an error message, or None when the result is right
Check = Callable[[Any], Optional[str]]


@dataclass(frozen=True)
class Case:
    """One run of a batch: the spec handed to ``execute`` and its check."""

    spec: RunSpec
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, bool], List[Case]]
    #: attach a TelemetryBus + MetricsSubscriber to every run
    observed: bool = False
    #: spec of the plain (serial, unobserved) run that must produce the
    #: same schedule digest — the paper's substitution invariant; None
    #: when the workload already is the plain run
    twin: Optional[Callable[[RunSpec], RunSpec]] = None


# -- result checks ----------------------------------------------------------


def _check_sat(cnf: Any) -> Check:
    expected = dpll_solve(cnf).satisfiable

    def check(result: Any) -> Optional[str]:
        verdict = result.verdict
        if verdict["sat"] != expected:
            return f"verdict sat={verdict['sat']}, sequential DPLL says {expected}"
        if expected and not cnf.is_satisfied_by(dict(verdict["assignment"])):
            return "returned assignment does not satisfy the formula"
        return None

    return check


def _check_value(expected: int) -> Check:
    def check(result: Any) -> Optional[str]:
        value = result.verdict["value"]
        if value != expected:
            return f"value {value}, sequential reference says {expected}"
        return None

    return check


# -- batch builders -----------------------------------------------------------


def _sat_cases(seed: int, n: int, topology: str, **knobs: Any) -> List[Case]:
    cases = []
    for i, cnf in enumerate(uf20_91_suite(n, seed)):
        spec = RunSpec(
            workload="sat",
            workload_params={
                "clauses": [list(c) for c in cnf.clauses],
                "num_vars": cnf.num_vars,
            },
            topology=topology,
            simplify="none",
            heuristic="max_occurrence",
            drain=True,
            seed=seed + i,
            **knobs,
        )
        cases.append(Case(spec, _check_sat(cnf)))
    return cases


def _sat_lbn(seed: int, smoke: bool) -> List[Case]:
    if smoke:
        return _sat_cases(seed, 1, "torus:6x6", mapper="lbn", status=16)
    return _sat_cases(seed, 8, "torus:14x14", mapper="lbn", status=16)


def _sat_rr(seed: int, smoke: bool) -> List[Case]:
    if smoke:
        return _sat_cases(seed, 1, "torus:6x6", mapper="rr")
    return _sat_cases(seed, 8, "torus:14x14", mapper="rr")


def _repeated(n_runs: int, seed: int, check: Check, **knobs: Any) -> List[Case]:
    # several shorter runs rather than one long one: a run's fastest time
    # over the passes is steadier the shorter the run is (see
    # ``run.undisturbed``); the machine seed is the only difference
    return [Case(RunSpec(seed=seed + i, **knobs), check) for i in range(n_runs)]


def _fib_rr(seed: int, smoke: bool) -> List[Case]:
    runs, n, topology = (1, 10, "torus:4x4x4") if smoke else (3, 18, "torus:8x8x8")
    return _repeated(runs, seed, _check_value(sequential_fib(n)), workload="fib",
                     workload_params={"n": n}, topology=topology, mapper="rr")


def _sparse_chain(seed: int, smoke: bool) -> List[Case]:
    runs, n, topology = (1, 300, "torus:4x4") if smoke else (4, 2500, "torus:16x16")
    return _repeated(runs, seed, _check_value(closed_form_sum(n)), workload="sumrec",
                     workload_params={"n": n}, topology=topology, mapper="rr",
                     latency=32, max_steps=10_000_000)


def _sat_lossy(seed: int, smoke: bool) -> List[Case]:
    faults: Dict[str, Any] = dict(mapper="rr", drop=0.05, duplicate=0.02, reliable=True)
    if smoke:
        return _sat_cases(seed, 1, "torus:6x6", **faults)
    return _sat_cases(seed, 7, "torus:14x14", **faults)


def _sat_observed(seed: int, smoke: bool) -> List[Case]:
    if smoke:
        return _sat_cases(seed, 1, "torus:6x6", mapper="lbn", status=16)
    return _sat_cases(seed, 6, "torus:14x14", mapper="lbn", status=16)


def _sat_shard2(seed: int, smoke: bool) -> List[Case]:
    # generator recipes, unfiltered, so SAT and UNSAT formulas both occur;
    # 24 variables keep one run long enough (5k-13k deliveries) that the
    # per-step RPC, not the worker spawn, is most of it
    n, num_vars, num_clauses, topology = (
        (1, 12, 50, "torus:4x4") if smoke else (2, 24, 102, "torus:14x14")
    )
    rng = random.Random(seed)
    cases = []
    for i in range(n):
        params = {"num_vars": num_vars, "num_clauses": num_clauses,
                  "formula_seed": rng.randrange(1 << 30)}
        spec = RunSpec(
            workload="sat", workload_params=params, topology=topology,
            mapper="lbn", status=16, simplify="none", heuristic="max_occurrence",
            drain=True, seed=seed + i, shards=2, shard_backend="process",
        )
        cases.append(Case(spec, _check_sat(cnf_of(params))))
    return cases


def _serial_twin(spec: RunSpec) -> RunSpec:
    return spec.with_(shards=1, shard_backend="auto")


def _same_spec(spec: RunSpec) -> RunSpec:
    return spec


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "sat_lbn",
            "uf20 SAT on torus 14x14 with lbn mapper and status 16: the paper's "
            "headline setup, all five layers busy, mapping and CNF.assign heaviest",
            _sat_lbn,
        ),
        Workload(
            "sat_rr",
            "same formulas and machine with the rr mapper and no status traffic: "
            "bypasses LBN scoring, so a score cache must show on sat_lbn only",
            _sat_rr,
        ),
        Workload(
            "fib_rr",
            "fib(18) runs on torus 8x8x8: layer 5 is one addition, so the pass is "
            "per-message overhead of layers 1-4 and CNF work is absent",
            _fib_rr,
        ),
        Workload(
            "sparse_chain",
            "sumrec chains with link latency 32: one message in flight, 97% of "
            "steps empty, so the step kernel's per-step floor is the pass",
            _sparse_chain,
        ),
        Workload(
            "sat_lossy",
            "sat_rr formulas with 5% drop, 2% duplication and reliable delivery: "
            "slow send path, framing, retransmit timers",
            _sat_lossy,
        ),
        Workload(
            "sat_observed",
            "sat_lbn formulas with a TelemetryBus and MetricsSubscriber attached: "
            "every emission site live, the cost of leaving observability on",
            _sat_observed,
            observed=True,
            twin=_same_spec,
        ),
        Workload(
            "sat_shard2",
            "24-variable SAT on two process shards, worker spawn included: the "
            "function-shipping backend end to end against its serial twin",
            _sat_shard2,
            twin=_serial_twin,
        ),
    )
}
