"""The differential oracle: run every applicable mode, demand agreement.

For one sampled fuzz point (a :class:`~repro.engine.RunSpec`) the oracle
runs the serial baseline and then every other applicable execution mode,
asserting per mode:

========== =========================================================
mode        comparison against the serial baseline
========== =========================================================
sharded     verdict, schedule digest, semantic state digest and
            telemetry counters all equal (the backend promises
            bit-identity)
resume      verdict, schedule digest and semantic state digest equal
            (telemetry *counters* are skipped: bus subscribers are
            assembly, not state — a resumed run's metrics cover only
            the post-resume suffix by design)
fault_free  coarse verdict parity (a reliability-protected faulty run
            must reach the same answer as clean links; schedules
            legitimately differ, and the comparison is skipped if
            either run ran out of steps)
reference   coarse verdict parity with the sequential solvers, plus
            witness validation (SAT models satisfy the formula,
            N-queens placements are valid, traversals reach every
            node) — applied to clean or protected runs only
========== =========================================================

The first disagreement becomes a :class:`Discrepancy` — plain data,
JSON-round-trippable, carrying both sides of the comparison so the fuzz
artifact is self-explanatory.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..engine import RunSpec
from .workloads import RunOutcome, applicable_modes, check_reference, run_mode

__all__ = ["CheckResult", "Discrepancy", "MODE_NAMES", "check_config"]

#: every mode the oracle knows (--modes validates against this)
MODE_NAMES = ("serial", "sharded", "resume", "fault_free", "reference")


@dataclass
class Discrepancy:
    """One observed disagreement between execution modes (plain data)."""

    config: RunSpec
    #: the mode that disagreed with the serial baseline
    mode: str
    #: what disagreed: verdict | schedule_digest | state_digest |
    #: counters | reference | error
    kind: str
    detail: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "config": self.config.to_dict(),
            "mode": self.mode,
            "kind": self.kind,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Discrepancy":
        return cls(
            config=RunSpec.from_dict(data["config"]),
            mode=data["mode"],
            kind=data["kind"],
            detail=data["detail"],
        )


@dataclass
class CheckResult:
    """Everything one oracle invocation learned about one config."""

    config: RunSpec
    #: modes that actually ran/compared (skipped modes excluded)
    modes_run: List[str] = field(default_factory=list)
    discrepancy: Optional[Discrepancy] = None

    @property
    def ok(self) -> bool:
        return self.discrepancy is None


def _dict_diff(want: Dict[str, Any], got: Dict[str, Any], limit: int = 4) -> str:
    """A short human summary of how two counter dicts differ."""
    keys = sorted(set(want) | set(got))
    diffs = [
        f"{k}: baseline={want.get(k)!r} vs {got.get(k)!r}"
        for k in keys
        if want.get(k) != got.get(k)
    ]
    more = f" (+{len(diffs) - limit} more)" if len(diffs) > limit else ""
    return "; ".join(diffs[:limit]) + more


def _compare(
    config: RunSpec, baseline: RunOutcome, other: RunOutcome, *, counters: bool
) -> Optional[Discrepancy]:
    """Full-equality comparison of one mode against the serial baseline."""
    if other.verdict != baseline.verdict:
        return Discrepancy(
            config, other.mode, "verdict",
            f"serial verdict {baseline.verdict!r} vs "
            f"{other.mode} verdict {other.verdict!r}",
        )
    if other.schedule_digest != baseline.schedule_digest:
        return Discrepancy(
            config, other.mode, "schedule_digest",
            f"serial schedule {baseline.schedule_digest} vs "
            f"{other.mode} schedule {other.schedule_digest}",
        )
    if other.state_digest != baseline.state_digest:
        return Discrepancy(
            config, other.mode, "state_digest",
            f"serial state {baseline.state_digest} vs "
            f"{other.mode} state {other.state_digest}",
        )
    if counters and other.counters != baseline.counters:
        return Discrepancy(
            config, other.mode, "counters",
            _dict_diff(baseline.counters, other.counters),
        )
    return None


def check_config(
    config: RunSpec,
    *,
    modes: Optional[Sequence[str]] = None,
    shard_backend: str = "inline",
    runner: Callable[..., Optional[RunOutcome]] = run_mode,
) -> CheckResult:
    """Run ``config`` through every applicable mode and compare.

    ``modes`` optionally restricts the non-serial modes (the serial
    baseline always runs — it is what everything is compared against).
    ``runner`` is injectable so the shrinker tests can substitute a
    deliberately-broken oracle; it must follow the
    :func:`~repro.conformance.workloads.run_mode` contract.

    Any exception a mode raises is itself a conformance failure (modes
    may not crash on configurations others accept) and is reported as a
    ``kind="error"`` discrepancy rather than propagated.
    """
    result = CheckResult(config)
    wanted = applicable_modes(config)
    if modes is not None:
        unknown = sorted(set(modes) - set(MODE_NAMES))
        if unknown:
            raise ValueError(
                f"unknown modes {unknown}; known: {', '.join(MODE_NAMES)}"
            )
        wanted = [m for m in wanted if m == "serial" or m in modes]
    try:
        baseline = runner(config, "serial", shard_backend=shard_backend)
    except Exception:
        result.discrepancy = Discrepancy(
            config, "serial", "error", traceback.format_exc(limit=8)
        )
        return result
    result.modes_run.append("serial")
    for mode in wanted:
        if mode == "serial":
            continue
        if mode == "reference":
            error = check_reference(config, baseline)
            if error is not None:
                result.discrepancy = Discrepancy(config, "reference", "reference", error)
                return result
            result.modes_run.append(mode)
            continue
        try:
            other = runner(
                config, mode, shard_backend=shard_backend, baseline=baseline
            )
        except Exception:
            result.discrepancy = Discrepancy(
                config, mode, "error", traceback.format_exc(limit=8)
            )
            return result
        if other is None:
            # mode turned out moot for this run (e.g. it finished before
            # the first checkpoint boundary) — skipped, not compared
            continue
        if mode == "fault_free":
            if baseline.completed and other.completed:
                want, got = other.coarse_verdict(), baseline.coarse_verdict()
                if want != got:
                    result.discrepancy = Discrepancy(
                        config, mode, "verdict",
                        f"protected faulty verdict {got!r} vs "
                        f"fault-free verdict {want!r}",
                    )
                    return result
                result.modes_run.append(mode)
            continue
        # sharded and resume promise bit-identity; counters are part of
        # that promise for sharded only (see module docstring)
        found = _compare(config, baseline, other, counters=(mode == "sharded"))
        if found is not None:
            result.discrepancy = found
            return result
        result.modes_run.append(mode)
    return result
