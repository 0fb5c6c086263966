"""Checkpoint round-trip gate: resume parity on real SAT workloads.

For each configuration below, this runs one uf20-91 solve straight through
with periodic checkpointing, then resumes from an early, a middle and a
late checkpoint file and verifies each resumed run reproduces the
uninterrupted run exactly — verdict, model, step count, message totals and
the semantic state digest (see ``docs/checkpointing.md``).

Configurations:

* ``plain``            — round-robin mapping, perfect links;
* ``lbn``              — adaptive (least-busy-neighbour) mapping with
                         explicit status broadcasts;
* ``faulty-reliable``  — lossy links under the layer-1.5 reliable-delivery
                         protocol;
* ``lifo``             — last-in first-out inbox pops;
* ``random-bounded``   — seeded random inbox pops, inboxes bounded at 64.

Usage (from the repository root)::

    PYTHONPATH=src python tools/checkpoint_roundtrip.py

Prints one PASS/FAIL line per (configuration, resume point); exit status
is non-zero on any mismatch.  CI runs this as part of the smoke job.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.apps.sat.generator import uf20_91_suite
from repro.engine import RunSpec, execute
from repro.netsim.digest import canonical_digest
from repro.topology import Torus

CONFIGS = {
    "plain": {},
    "lbn": {"mapper": "lbn", "status": 8},
    "faulty-reliable": {"drop": 0.03, "duplicate": 0.01, "reliable": True},
    "lifo": {"queue_policy": "lifo"},
    "random-bounded": {"queue_policy": "random", "queue_capacity": 64},
}

CHECKPOINT_EVERY = 10


def fingerprint(res) -> str:
    """Everything a resumed run must reproduce, as one short digest."""
    return canonical_digest({
        "sat": res.verdict["sat"],
        "model": res.verdict["assignment"] or None,
        "steps": res.report.steps,
        "sent": res.report.sent_total,
        "delivered": res.report.delivered_total,
        "state": res.state_digest,
    })


def run_config(name: str, overrides: dict, workdir: Path) -> int:
    cnf = uf20_91_suite(1, seed=2017)[0]
    spec = RunSpec(
        workload="sat", workload_params=cnf.to_params(), simplify="none", seed=1,
        **overrides,
    )
    topology = Torus((6, 6))
    ckpt_dir = workdir / name
    ref = execute(
        spec.with_(checkpoint_every=CHECKPOINT_EVERY, checkpoint_dir=str(ckpt_dir)),
        topology=topology,
    )
    if not cnf.is_satisfied_by(dict(ref.verdict["assignment"])):
        print(f"[FAIL] {name}: reference model does not satisfy the formula")
        return 1
    want = fingerprint(ref)
    files = sorted(ckpt_dir.glob("checkpoint-*.ckpt"))
    if len(files) < 3:
        print(f"[FAIL] {name}: only {len(files)} checkpoints written, need 3")
        return 1
    picks = {"early": files[0], "mid": files[len(files) // 2], "late": files[-1]}

    failures = 0
    for label, path in picks.items():
        resumed = execute(spec, topology=topology, resume_from=path)
        got = fingerprint(resumed)
        ok = got == want
        status = "ok" if ok else "FAIL"
        print(
            f"[{status}] {name:16s} resume {label:5s} ({path.name}) "
            f"digest {got}{'' if ok else ' != ' + want}"
        )
        failures += 0 if ok else 1
    return failures


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="ckpt_roundtrip_") as scratch:
        for name, overrides in CONFIGS.items():
            failures += run_config(name, overrides, Path(scratch))
    if failures:
        print(f"\n{failures} resume-parity failure(s)", file=sys.stderr)
        return 1
    print("\nall resumed runs reproduced their uninterrupted references")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
