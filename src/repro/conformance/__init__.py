"""Differential conformance fuzzing: one oracle for every execution mode.

The paper's five-layer model promises that layers can be swapped without
changing solver semantics, and this repository has accumulated many
swappable execution modes: the serial :class:`~repro.netsim.Machine`, the
sharded multi-process backend at any shard count, reliability-protected
faulty links, and checkpoint/resume at arbitrary step boundaries.  Their
pairwise equivalence used to be pinned only by hand-written parity tests
at a handful of configurations; this package turns the layer-substitution
claim into a continuously fuzzed invariant:

* :mod:`repro.conformance.space` — the configuration space as one table
  (``RunSpec`` field -> the values it is drawn from) and a seeded
  sampler over it;
* :mod:`repro.conformance.workloads` — adapters that run one sampled
  configuration through one execution mode and report a comparable
  :class:`~repro.conformance.workloads.RunOutcome` (verdict, schedule
  digest, semantic state digest, telemetry counters);
* :mod:`repro.conformance.oracle` — the differential oracle: run every
  applicable mode, assert verdict parity, ``state_digest`` equality,
  telemetry-counter equality and schedule-digest equality (plus verdict
  parity of reliability-protected faulty runs against their fault-free
  baseline, and against the sequential reference solvers);
* :mod:`repro.conformance.shrink` — an automatic shrinker
  (delta-debugging over config dimensions, then step count and formula
  size) that reduces any discrepancy to a minimal repro;
* :mod:`repro.conformance.fuzzer` — the fuzz loop and the replayable
  artifact format behind ``repro fuzz`` (``--seed``, ``--budget``,
  ``--replay``, ``--modes``).

A pinned-seed corpus lives under ``tests/conformance/corpus/`` and is
replayed by the tier-1 suite; ``docs/testing.md`` documents how to run
and extend the fuzzer.
"""

from .fuzzer import (
    ArtifactError,
    FuzzReport,
    load_artifact,
    replay_artifact,
    run_fuzz,
    save_artifact,
)
from .oracle import MODE_NAMES, CheckResult, Discrepancy, check_config
from .shrink import shrink_config
from .space import DEFAULT_CONFIG, sample_configs

__all__ = [
    "ArtifactError",
    "CheckResult",
    "DEFAULT_CONFIG",
    "Discrepancy",
    "FuzzReport",
    "MODE_NAMES",
    "check_config",
    "load_artifact",
    "replay_artifact",
    "run_fuzz",
    "sample_configs",
    "save_artifact",
    "shrink_config",
]
