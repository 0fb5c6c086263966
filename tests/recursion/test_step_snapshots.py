"""The layer-4 snapshot at every step boundary, pinned.

A checkpoint is taken after every step (``checkpoint_every=1``), so each
one catches invocations suspended mid-sync: some results in, some still
pending.  The sequence of semantic state digests therefore covers every
partial state of the call bookkeeping, not only the drained end of a run.
The literals were recorded before plain calls stopped carrying a call
record of their own; ``snapshot_app_state`` writes the record it no longer
stores, so none of them moved.

* ``fib`` makes plain calls only;
* ``nqueens`` makes choice groups (with late replies);
* ``sat_cancel`` makes choice groups with cancellation on, so losing
  evaluations are retired and cancelled mid-run.
"""

import random

import pytest

from repro.apps.sat.generator import uniform_random_ksat
from repro.engine import RunSpec, execute
from repro.netsim.digest import canonical_digest

SPECS = {
    "fib": RunSpec(workload="fib", workload_params={"n": 9}, topology="torus:4x4"),
    "nqueens": RunSpec(
        workload="nqueens", workload_params={"n": 5}, topology="torus:4x4"
    ),
    "sat_cancel": RunSpec(
        workload="sat",
        workload_params=uniform_random_ksat(10, 43, 3, random.Random(2)).to_params(),
        topology="torus:4x4",
        simplify="none",
        cancellation=True,
        seed=3,
    ),
}

#: run -> (checkpoints taken, digest of their state digests in order)
PINNED = {
    "fib": (29, "83f049fb7d38d23c"),
    "nqueens": (17, "4769fdbec33a8236"),
    "sat_cancel": (33, "3f8d91d50f705cc4"),
}


def step_digests(spec):
    snaps = []
    execute(spec.with_(checkpoint_every=1), checkpoint_sink=snaps.append)
    return len(snaps), canonical_digest([ckpt.state_digest for ckpt in snaps])


@pytest.mark.parametrize("name", sorted(SPECS))
def test_state_digest_at_every_step_pinned(name):
    assert step_digests(SPECS[name]) == PINNED[name]
