"""Entry-point lint: every machine is assembled on the one path.

A run is assembled in exactly one sequence — ``repro.engine.execute``
builds a :class:`~repro.stack.HyperspaceStack`, the stack's one tower
builder stacks the layer 2–4 programs, and its single machine builder
constructs the layer-1 :class:`~repro.netsim.Machine` or
:class:`~repro.netsim.sharded.ShardedMachine` under them.  Any other
construction site silently forks the capability rules (which knob
combinations are legal, how defaults are resolved, what the checkpoint
header records, who closes the shard workers), so this lint walks the
AST of every production Python file and fails on a call to one of the
six constructors outside that constructor's own short allowlist
(see ``ALLOWED``):

* ``HyperspaceStack(`` — ``src/repro/engine.py``, the funnel itself;
* ``ShardedMachine(`` — ``src/repro/stack.py`` (the machine builder);
* ``Machine(`` — ``src/repro/stack.py`` (the machine builder),
  ``src/repro/apps/traversal.py`` (the Listing-1 teaching helper) and
  the layer-1 microbenchmarks ``benchmarks/bench_microbenchmarks.py``;
* ``SchedulerProgram(``, ``MappingService(`` and ``RecursionEngine(`` —
  ``src/repro/stack.py`` only (``_build_tower``, the layer 2–4 builder).

Tests and ``examples/`` are out of scope: they exercise the stack
directly on purpose (white-box digests, teaching material).

Usage (from the repository root)::

    python tools/check_entrypoints.py [--root PATH]

Exit status is non-zero when a violation is found; CI runs this in the
docs/lint job and ``tests/test_engine.py`` runs it as a tier-1 test.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]

#: constructor -> the production files allowed to call it (relative to
#: the root); anything that assembles a machine is listed here
ALLOWED = {
    "HyperspaceStack": ("src/repro/engine.py",),
    "ShardedMachine": ("src/repro/stack.py",),
    "Machine": (
        "src/repro/stack.py",
        "src/repro/apps/traversal.py",
        "benchmarks/bench_microbenchmarks.py",
    ),
    "SchedulerProgram": ("src/repro/stack.py",),
    "MappingService": ("src/repro/stack.py",),
    "RecursionEngine": ("src/repro/stack.py",),
}

#: production trees the lint walks (tests/ and examples/ are exempt)
SCANNED = ("src/repro", "benchmarks", "tools")


def _called_name(node: ast.Call) -> str:
    """The rightmost identifier of the call target (``a.b.C() -> "C"``)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def scan_file(path: Path) -> Iterator[Tuple[int, str]]:
    """Yield ``(lineno, constructor)`` for each constructor call in ``path``."""
    try:
        tree = ast.parse(path.read_text(), filename=str(path))
    except SyntaxError as exc:  # a broken file is its own CI failure
        raise SystemExit(f"{path}: cannot parse: {exc}") from exc
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _called_name(node)
            if name in ALLOWED:
                yield node.lineno, name


def check(root: Path) -> List[str]:
    """All violations under ``root``, as ready-to-print strings."""
    violations: List[str] = []
    for tree in SCANNED:
        base = root / tree
        if not base.exists():
            continue
        for path in sorted(base.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            for lineno, name in scan_file(path):
                if rel in ALLOWED[name]:
                    continue
                violations.append(
                    f"{rel}:{lineno}: {name}(...) constructed off the one "
                    "assembly path — route this run through "
                    "repro.engine.execute (or extend ALLOWED in "
                    "tools/check_entrypoints.py with a justification)"
                )
    return violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", default=str(REPO_ROOT),
        help="repository root to scan (default: this checkout)",
    )
    args = parser.parse_args(argv)
    violations = check(Path(args.root).resolve())
    for line in violations:
        print(line, file=sys.stderr)
    if violations:
        print(
            f"entry-point lint: {len(violations)} violation(s)", file=sys.stderr
        )
        return 1
    print("entry-point lint: ok (machines assembled only on the engine's path)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
