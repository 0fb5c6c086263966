"""The fuzz loop and the replayable discrepancy artifact format.

:func:`run_fuzz` drives the whole tentpole: sample ``budget`` configs
from the seeded space, run each through the differential oracle, shrink
any discrepancy to a minimal config (re-checking that the *same* mode
and comparison kind still fail, so shrinking cannot drift onto a
different bug) and write it as a replayable JSON artifact.

An artifact is self-contained: the exact fuzz point (a
:class:`~repro.engine.RunSpec` as ``to_dict()``), the mode
and comparison that disagreed, and the mode restriction in effect — so
``repro fuzz --replay <artifact>`` re-runs the oracle on precisely that
configuration, deterministically, on any machine.  The pinned corpus
under ``tests/conformance/corpus/`` uses the same format.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..engine import RunSpec, validate
from ..errors import ReproError
from .oracle import CheckResult, Discrepancy, check_config
from .shrink import shrink_config
from .space import sample_configs

__all__ = [
    "ARTIFACT_FORMAT",
    "ArtifactError",
    "FuzzReport",
    "load_artifact",
    "replay_artifact",
    "run_fuzz",
    "save_artifact",
]

ARTIFACT_FORMAT = "repro-conformance-repro"
#: 2: the embedded config is a ``RunSpec.to_dict()`` payload
ARTIFACT_VERSION = 2


class ArtifactError(ReproError):
    """A discrepancy artifact is missing, corrupt, or not an artifact."""


# -- artifacts --------------------------------------------------------------


def save_artifact(
    path: Union[str, Path],
    discrepancy: Discrepancy,
    *,
    modes: Optional[Sequence[str]] = None,
    original: Optional[RunSpec] = None,
) -> Path:
    """Write a replayable artifact for ``discrepancy``; returns the path.

    ``modes`` records any mode restriction the fuzz run was under (so the
    replay applies the same one); ``original`` optionally preserves the
    pre-shrink config for forensics.
    """
    path = Path(path)
    payload: Dict[str, Any] = {
        "format": ARTIFACT_FORMAT,
        "version": ARTIFACT_VERSION,
        "discrepancy": discrepancy.to_dict(),
        "modes": list(modes) if modes is not None else None,
    }
    if original is not None and original != discrepancy.config:
        payload["original_config"] = original.to_dict()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_artifact(path: Union[str, Path]) -> Dict[str, Any]:
    """Load and validate an artifact; raises :class:`ArtifactError`.

    Returns the decoded payload with ``discrepancy`` already upgraded to
    a :class:`~repro.conformance.oracle.Discrepancy` (which validates the
    embedded config's fields).
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ArtifactError(f"cannot read artifact {path}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"artifact {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != ARTIFACT_FORMAT:
        raise ArtifactError(
            f"artifact {path} is not a {ARTIFACT_FORMAT} file "
            f"(format={payload.get('format')!r})"
            if isinstance(payload, dict)
            else f"artifact {path} is not a {ARTIFACT_FORMAT} file"
        )
    if payload.get("version") != ARTIFACT_VERSION:
        raise ArtifactError(
            f"artifact {path} has unsupported version "
            f"{payload.get('version')!r} (supported: {ARTIFACT_VERSION})"
        )
    try:
        payload["discrepancy"] = Discrepancy.from_dict(payload["discrepancy"])
    except (KeyError, TypeError, ReproError) as exc:
        raise ArtifactError(f"artifact {path} is corrupt: {exc}") from exc
    return payload


def replay_artifact(
    path: Union[str, Path], *, shard_backend: str = "inline"
) -> CheckResult:
    """Re-run the oracle on an artifact's config, deterministically.

    The embedded config is first checked against the single capability
    table in :mod:`repro.engine` (normalised to its serial baseline —
    shard count and checkpoint cadence are per-mode knobs): a hand-edited
    artifact naming an unknown mapper or an impossible knob combination
    raises :class:`~repro.errors.SpecError` with the *same message*
    ``repro solve`` and :func:`repro.engine.execute` would give, instead
    of being reported as a mode "crash" discrepancy.
    """
    payload = load_artifact(path)
    disc: Discrepancy = payload["discrepancy"]
    validate(disc.config.with_(shards=1, checkpoint_every=None))
    return check_config(
        disc.config, modes=payload.get("modes"), shard_backend=shard_backend
    )


# -- the fuzz loop ----------------------------------------------------------


@dataclass
class FuzzReport:
    """Aggregate outcome of one :func:`run_fuzz` invocation."""

    seed: int
    budget: int
    configs_checked: int = 0
    #: how many times each mode actually ran and was compared
    mode_runs: Dict[str, int] = field(default_factory=dict)
    discrepancies: List[Discrepancy] = field(default_factory=list)
    #: artifact file per discrepancy (when an artifact_dir was given)
    artifact_paths: List[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "configs_checked": self.configs_checked,
            "mode_runs": dict(sorted(self.mode_runs.items())),
            "discrepancies": [d.to_dict() for d in self.discrepancies],
            "artifact_paths": list(self.artifact_paths),
            "elapsed": round(self.elapsed, 3),
            "ok": self.ok,
        }


def _same_failure(template: Discrepancy) -> Callable[[CheckResult], bool]:
    """Shrink predicate: the candidate must fail the same way.

    "Same way" = same disagreeing mode and same comparison kind; anything
    looser lets the shrinker wander onto an unrelated failure and report
    a minimal config for the wrong bug.
    """

    def matches(result: CheckResult) -> bool:
        d = result.discrepancy
        return d is not None and d.mode == template.mode and d.kind == template.kind

    return matches


def run_fuzz(
    seed: int,
    budget: int,
    *,
    modes: Optional[Sequence[str]] = None,
    shard_backend: str = "inline",
    artifact_dir: Union[None, str, Path] = None,
    time_limit: Optional[float] = None,
    shrink: bool = True,
    max_shrink_evals: int = 200,
    progress: Optional[Callable[[str], None]] = None,
    check: Callable[..., CheckResult] = check_config,
) -> FuzzReport:
    """Fuzz ``budget`` seeded configs through the differential oracle.

    Keeps fuzzing after a discrepancy (each one is shrunk and recorded;
    a single run can surface several independent bugs).  ``time_limit``
    (seconds) stops sampling early for bounded CI smoke jobs — the
    report's ``configs_checked`` says how far it got.  ``check`` is
    injectable for tests; it must follow the
    :func:`~repro.conformance.oracle.check_config` contract.
    """
    report = FuzzReport(seed=seed, budget=budget)
    start = time.monotonic()
    say = progress if progress is not None else (lambda msg: None)
    for index, config in enumerate(sample_configs(seed, budget)):
        if time_limit is not None and time.monotonic() - start > time_limit:
            say(
                f"time limit {time_limit:.0f}s reached after "
                f"{report.configs_checked} configs"
            )
            break
        result = check(config, modes=modes, shard_backend=shard_backend)
        report.configs_checked += 1
        for mode in result.modes_run:
            report.mode_runs[mode] = report.mode_runs.get(mode, 0) + 1
        if result.ok:
            if (index + 1) % 25 == 0:
                say(f"[{index + 1}/{budget}] ok so far")
            continue
        disc = result.discrepancy
        say(f"[{index + 1}/{budget}] DISCREPANCY {disc.mode}/{disc.kind}: "
            f"{config.describe()}")
        original = config
        if shrink:
            matches = _same_failure(disc)

            def still_fails(candidate: RunSpec) -> bool:
                return matches(
                    check(candidate, modes=modes, shard_backend=shard_backend)
                )

            shrunk = shrink_config(config, still_fails, max_evals=max_shrink_evals)
            if shrunk != config:
                say(f"    shrunk to: {shrunk.describe()}")
                final = check(shrunk, modes=modes, shard_backend=shard_backend)
                if matches(final):
                    disc = final.discrepancy
        report.discrepancies.append(disc)
        if artifact_dir is not None:
            path = save_artifact(
                Path(artifact_dir) / f"discrepancy-{len(report.discrepancies):03d}.json",
                disc,
                modes=modes,
                original=original,
            )
            report.artifact_paths.append(str(path))
            say(f"    artifact: {path}")
    report.elapsed = time.monotonic() - start
    return report
