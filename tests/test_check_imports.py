"""The unused-import lint (``tools/check_imports.py``) over ``src/repro``."""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
LINT = REPO_ROOT / "tools" / "check_imports.py"


def run_lint(*args):
    return subprocess.run(
        [sys.executable, str(LINT), *args], capture_output=True, text=True
    )


def test_every_module_level_import_is_used():
    proc = run_lint()
    assert proc.returncode == 0, proc.stderr


def test_lint_catches_an_unused_import_and_spares_the_used_kinds(tmp_path):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("from os import sep\n")  # a re-export
    (pkg / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import json\n"
        "from typing import TYPE_CHECKING, List, Optional\n"
        "from os import path, sep\n"
        "if TYPE_CHECKING:\n"
        "    from decimal import Decimal\n"
        "    from fractions import Fraction\n"
        "__all__ = ['sep']\n"
        "def f(x: Optional['Decimal']) -> None:\n"
        "    return path\n"
    )
    proc = run_lint("--root", str(tmp_path))
    assert proc.returncode == 1
    flagged = [line.split(": ", 1)[1] for line in proc.stderr.splitlines()
               if line.startswith("src/")]
    assert flagged == [
        "'json' imported but unused",
        "'List' imported but unused",
        "'Fraction' imported but unused",
    ]
