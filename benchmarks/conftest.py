"""Shared configuration for the benchmark suite.

Benches run at the ``quick`` preset by default (seconds per figure); set
``REPRO_BENCH_PRESET=full`` to regenerate the paper-sized sweep (20
problems, 10^1..10^3 cores — a few minutes).

Every bench prints the regenerated table/figure through pytest's terminal
reporter, so ``pytest benchmarks/ --benchmark-only -s`` shows the paper
artefacts alongside the timing numbers.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

from repro.bench import FULL, QUICK, BenchPreset

# the solvers outside the package import as ``zoo.*`` (examples/zoo/)
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "examples"))


def active_preset() -> BenchPreset:
    """The preset selected via REPRO_BENCH_PRESET (quick by default)."""
    name = os.environ.get("REPRO_BENCH_PRESET", "quick").lower()
    if name == "full":
        return FULL
    if name == "quick":
        return QUICK
    raise ValueError(f"unknown REPRO_BENCH_PRESET {name!r} (quick|full)")


@pytest.fixture(scope="session")
def preset() -> BenchPreset:
    return active_preset()


@pytest.fixture(scope="session")
def emit():
    """Print a rendered figure/table block, bypassing capture."""

    def _emit(text: str) -> None:
        print("\n" + text + "\n", flush=True)

    return _emit
