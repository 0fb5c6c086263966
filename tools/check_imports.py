"""Unused-import lint: every name a module imports at module level is used.

An import nobody reads still costs start-up time and misleads a reader
about what a module depends on; without a linter in CI they accumulate.
This lint walks the AST of every Python file under ``src/repro`` and
fails on a module-level import (including one inside a module-level
``if``/``try``, such as ``if TYPE_CHECKING:``) whose bound name the
module never reads.  A name counts as used when it

* is read anywhere in the module (``ast.Name``, any context),
* is listed in the module's ``__all__``, or
* appears inside a string annotation (``Optional["Machine"]``).

Package ``__init__.py`` files are skipped: their imports are the
package's re-exports.  ``from __future__`` imports are not names.

Usage (from the repository root)::

    python tools/check_imports.py [--root PATH]

Exit status is non-zero when an unused import is found; CI runs this in
the docs/lint job and ``tests/test_check_imports.py`` runs it as a
tier-1 test.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Iterator, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]

#: the tree the lint walks, relative to the root
SCANNED = "src/repro"


def _module_imports(tree: ast.Module) -> Iterator[Tuple[int, str]]:
    """``(lineno, bound name)`` of each module-level import."""
    pending: List[ast.stmt] = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name
        elif isinstance(node, ast.If):
            pending.extend(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            pending.extend(node.body + node.orelse + node.finalbody)
            for handler in node.handlers:
                pending.extend(handler.body)


def _names_in(node: ast.AST) -> Iterator[str]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id


def _annotations(tree: ast.Module) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                if arg.annotation is not None:
                    yield arg.annotation
            for arg in (args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> Set[str]:
    used = set(_names_in(tree))
    for annotation in _annotations(tree):
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                try:
                    used.update(_names_in(ast.parse(sub.value, mode="eval")))
                except SyntaxError:
                    continue
    for node in tree.body:
        targets: List[ast.expr] = []
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used.add(sub.value)
    return used


def scan_file(path: Path) -> Iterator[Tuple[int, str]]:
    """Yield ``(lineno, name)`` for each unused module-level import."""
    try:
        tree = ast.parse(path.read_text(), filename=str(path))
    except SyntaxError as exc:  # a broken file is its own CI failure
        raise SystemExit(f"{path}: cannot parse: {exc}") from exc
    used = _used_names(tree)
    for lineno, name in _module_imports(tree):
        if name not in used:
            yield lineno, name


def check(root: Path) -> List[str]:
    """All unused imports under ``root``, as ready-to-print strings."""
    base = root / SCANNED
    if not base.exists():
        return []
    violations: List[str] = []
    for path in sorted(base.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        rel = path.relative_to(root).as_posix()
        for lineno, name in scan_file(path):
            violations.append(f"{rel}:{lineno}: {name!r} imported but unused")
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
        print(f"import lint: {len(violations)} unused import(s)", file=sys.stderr)
        return 1
    print(f"import lint: ok (every module-level import under {SCANNED} is used)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
