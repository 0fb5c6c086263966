#!/usr/bin/env python3
"""Topology playground: one workload, many machines.

Runs fork-join Fibonacci on every topology family in the package — tori,
hypercube, cube-connected cycles, grid, ring, fully connected, a NetworkX
import (the Petersen graph, through ``zoo/networkx_bridges.py``) — at
comparable sizes, then demonstrates *virtualised* execution: a complete
binary tree of workers embedded into a hypercube host
(``zoo/embedding.py``), paying its dilation as link latency.

Usage:  python examples/topology_playground.py
"""

import networkx as nx

from repro import HyperspaceStack
from repro.apps.fib import fib, sequential_fib
from repro.bench import format_table
from repro.topology import (
    CompleteTree,
    CubeConnectedCycles,
    FullyConnected,
    Grid,
    Hypercube,
    Ring,
    Torus,
)
from zoo.embedding import embed_tree_in_hypercube
from zoo.networkx_bridges import from_networkx

N = 14
EXPECTED = sequential_fib(N)

MACHINES = [
    Torus((8, 8)),
    Torus((4, 4, 4)),
    Hypercube(6),
    CubeConnectedCycles(4),
    Grid((8, 8)),
    Ring(64),
    FullyConnected(64),
    from_networkx(nx.petersen_graph(), name="petersen"),
]


def main() -> None:
    rows = []
    for topo in MACHINES:
        stack = HyperspaceStack(topo, mapper="lbn", seed=1)
        result, report = stack.run_recursive(fib, N, halt_on_result=False)
        assert result == EXPECTED
        rows.append([
            topo.describe(),
            topo.n_nodes,
            topo.diameter(),
            report.computation_time,
            report.active_node_count,
        ])
    print(format_table(
        ["machine", "cores", "diameter", f"fib({N}) steps", "active nodes"],
        rows,
        title="one workload, many machines (least-busy-neighbour mapping)",
    ))

    # --- virtualised execution via embedding --------------------------------
    tree = CompleteTree(2, 6)          # 63 workers in a binary tree
    cube = Hypercube(6)                # 64-node host
    emb = embed_tree_in_hypercube(tree, cube)
    native = HyperspaceStack(tree, seed=1)
    _, rep_native = native.run_recursive(fib, N, halt_on_result=False)
    # link latency is one int per machine, so every guest link pays the
    # longest host route: dilation - 1 steps on top of the one every hop pays
    virtual = HyperspaceStack(tree, seed=1, latency=emb.dilation() - 1)
    _, rep_virtual = virtual.run_recursive(fib, N, halt_on_result=False)
    print(f"\nvirtualised tree-on-hypercube (dilation {emb.dilation()}):")
    print(f"  native tree machine : {rep_native.computation_time} steps")
    print(f"  embedded in 6-cube  : {rep_virtual.computation_time} steps "
          f"(every link at latency {emb.dilation() - 1})")
    print(
        "  note: dilated links pay extra in-flight hops, but on a congested\n"
        "  machine the delays also re-order queue processing — the two\n"
        "  effects can partially offset, so virtualisation cost is workload-\n"
        "  dependent rather than a fixed slowdown."
    )


if __name__ == "__main__":
    main()
