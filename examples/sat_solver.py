#!/usr/bin/env python3
"""Solve SAT problems on a simulated hyperspace machine (paper §V).

Solves a DIMACS CNF file — or a generated uf20-91-style instance when no
file is given — with the paper's Listing-4 distributed DPLL, verifies the
model against the formula and against the sequential reference solver, and
prints the profiling data of §V-C: computation time, interconnect activity
and the node-activity heatmap.

Usage:
    python examples/sat_solver.py [problem.cnf] [--cores N] [--mapper rr|lbn|random|hint]
"""

import argparse

from repro.apps.sat import dpll_solve, load_dimacs, uf20_91_suite
from repro.bench import heatmap_ascii, sparkline
from repro.engine import RunSpec, execute
from repro.mapping import MAPPERS
from repro.topology import Torus, nearest_mesh_dims


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("cnf", nargs="?", help="DIMACS CNF file (default: generated)")
    parser.add_argument("--cores", type=int, default=196, help="approximate core count")
    parser.add_argument("--mapper", default="lbn", choices=list(MAPPERS))
    parser.add_argument("--seed", type=int, default=2017)
    args = parser.parse_args()

    if args.cnf:
        cnf = load_dimacs(args.cnf)
        print(f"loaded {args.cnf}: {cnf.num_vars} vars, {cnf.num_clauses} clauses")
    else:
        cnf = uf20_91_suite(1, seed=args.seed)[0]
        print(f"generated uf20-91-style instance ({cnf.num_vars} vars, "
              f"{cnf.num_clauses} clauses, satisfiable)")

    topo = Torus(nearest_mesh_dims(args.cores, 2))
    print(f"machine: {topo.describe()} with {args.mapper} mapping\n")

    spec = RunSpec(
        workload="sat",
        workload_params=cnf.to_params(),
        mapper=args.mapper,
        seed=args.seed,
        simplify="none",
    )
    res = execute(spec, topology=topo)

    seq = dpll_solve(cnf)
    assert res.verdict["sat"] == seq.satisfiable, "distributed/sequential disagree!"

    if res.verdict["sat"]:
        model = dict(res.verdict["assignment"])
        assert cnf.is_satisfied_by(model)
        lits = " ".join(str(v if val else -v) for v, val in model.items())
        print(f"SAT — verified model: {lits}")
    else:
        print("UNSAT")

    rep = res.report
    print(f"\ncomputation time  : {rep.computation_time} steps")
    print(f"messages          : {rep.sent_total}")
    print(f"peak queued       : {rep.peak_queued}")
    print(f"active nodes      : {rep.active_node_count} / {topo.n_nodes}")
    print(f"activity entropy  : {rep.activity_entropy:.2f} bits")
    print(f"\ninterconnect activity (queued messages vs step):")
    print(f"  |{sparkline(rep.interconnect_activity)}|")
    print(f"\nnode activity heatmap:")
    print(heatmap_ascii(rep.heatmap()))


if __name__ == "__main__":
    main()
