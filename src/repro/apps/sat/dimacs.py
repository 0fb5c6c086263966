"""DIMACS CNF reader/writer.

The paper's benchmark problems come from SATLIB ([42]), distributed in
DIMACS CNF format.  This module parses and serialises that format so users
can run the solver on standard instances (the bench suite generates
equivalent instances locally because the SATLIB files require network
access; see DESIGN.md).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Optional, Union

from ...errors import DimacsFormatError
from .cnf import CNF

__all__ = ["parse_dimacs", "to_dimacs", "load_dimacs", "save_dimacs"]


def parse_dimacs(text: str) -> CNF:
    """Parse DIMACS CNF text into a :class:`CNF`.

    Accepts the common dialect: ``c`` comment lines, one ``p cnf V C``
    problem line, clauses as whitespace-separated literals terminated by
    ``0`` (clauses may span lines), ``%``/``0`` trailer lines (as found in
    SATLIB files) are tolerated.
    """
    declared_vars: Optional[int] = None
    declared_clauses: Optional[int] = None
    clauses: List[List[int]] = []
    current: List[int] = []
    ended = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line == "%":
            ended = True
            continue
        if ended and line == "0":
            continue
        if line.startswith("p"):
            if declared_vars is not None:
                raise DimacsFormatError(f"line {line_no}: duplicate problem line")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsFormatError(
                    f"line {line_no}: malformed problem line {line!r}"
                )
            try:
                declared_vars, declared_clauses = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise DimacsFormatError(
                    f"line {line_no}: non-numeric counts in {line!r}"
                ) from exc
            if declared_vars < 0 or declared_clauses < 0:
                raise DimacsFormatError(f"line {line_no}: negative counts")
            continue
        if declared_vars is None:
            raise DimacsFormatError(
                f"line {line_no}: clause data before 'p cnf' problem line"
            )
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError as exc:
                raise DimacsFormatError(
                    f"line {line_no}: bad literal {tok!r}"
                ) from exc
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                current.append(lit)
    if current:
        raise DimacsFormatError("unterminated final clause (missing trailing 0)")
    if declared_vars is None:
        raise DimacsFormatError("missing 'p cnf' problem line")
    if declared_clauses is not None and len(clauses) != declared_clauses:
        raise DimacsFormatError(
            f"problem line declares {declared_clauses} clauses, found {len(clauses)}"
        )
    try:
        return CNF(clauses, num_vars=declared_vars)
    except Exception as exc:  # variable out of declared range etc.
        raise DimacsFormatError(str(exc)) from exc


def to_dimacs(cnf: CNF, comments: Iterable[str] = ()) -> str:
    """Serialise a :class:`CNF` to DIMACS text."""
    lines: List[str] = [f"c {c}" for c in comments]
    lines.append(f"p cnf {cnf.num_vars} {cnf.num_clauses}")
    for clause in cnf.clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


def load_dimacs(path: Union[str, Path]) -> CNF:
    """Read a DIMACS CNF file."""
    return parse_dimacs(Path(path).read_text())


def save_dimacs(
    cnf: CNF, path: Union[str, Path], comments: Iterable[str] = ()
) -> None:
    """Write a DIMACS CNF file."""
    Path(path).write_text(to_dimacs(cnf, comments))
