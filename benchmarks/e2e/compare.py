"""Compare two reports of ``run.py``: one row per workload and metric.

::

    python benchmarks/e2e/compare.py A.json B.json [--force]

``A`` is the parent (or the earlier set of runs), ``B`` the change.  Each
row gives both values with the quartiles of their samples (pass times, or
set-up probes), the metric's bound and a verdict:

* ``same`` — B's value is within the bound of A's;
* ``better`` / ``worse`` — B's value moved by more than the bound.  Two
  reports are one pair: a gain is *claimed* only from ten alternating
  pairs (see ``README.md``), this verdict just says where to look;
* ``unresolved`` — the spread between the quartiles of either side's
  samples is wider than the bound, so the row can show neither a
  regression nor its absence (unless every sample of B beats every
  sample of A).

Exact metrics (bound 0: the simulated totals, ``failed_frac``) compare
exactly, and a workload whose schedule digest differs is marked
``schedule changed``.  Per-layer counts that are exact by construction
(call counts, ``*.py_calls_per_delivery``, the ``sim.*`` totals) are listed
when they differ.  Reports made with different seeds, workload
definitions, run lengths or hosts are refused unless ``--force`` is given.
The exit code is 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from run import END_TO_END, SCHEMA, quartiles, spread

#: units whose per-layer values repeat exactly from run to run
EXACT_UNITS = ("count", "calls/delivery", "steps", "msgs")


def judge(
    a: Dict[str, Any], b: Dict[str, Any], bound: float, better: str
) -> str:
    """Verdict for one metric of one workload (``a``: parent, ``b``: change)."""
    sign = 1.0 if better == "higher" else -1.0
    a_value, b_value = a["value"], b["value"]
    if bound == 0.0:
        if a_value == b_value:
            return "same"
        return "better" if sign * (b_value - a_value) > 0 else "worse"
    a_runs, b_runs = a.get("samples") or [], b.get("samples") or []
    if a_runs and b_runs and max(spread(a_runs), spread(b_runs)) > bound:
        b_beats_a = (min(b_runs) > max(a_runs) if better == "higher"
                     else max(b_runs) < min(a_runs))
        return "better" if b_beats_a else "unresolved"
    gain = sign * (b_value - a_value) / a_value if a_value else 0.0
    if abs(gain) <= bound:
        return "same"
    return "better" if gain > 0 else "worse"


def mismatches(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Why the two reports should not be compared ([] = they can be)."""
    found = []
    for report, label in ((a, "A"), (b, "B")):
        if report.get("schema") != SCHEMA:
            found.append(f"{label} is not a {SCHEMA} report")
    if found:
        return found
    for key in ("seed", "seconds", "smoke"):
        if a[key] != b[key]:
            found.append(f"{key} differs: {a[key]!r} vs {b[key]!r}")
    if a["host"]["fingerprint"] != b["host"]["fingerprint"]:
        found.append(f"host differs: {a['host']['fingerprint']} vs "
                     f"{b['host']['fingerprint']}")
    if sorted(a["workloads"]) != sorted(b["workloads"]):
        found.append("the reports hold different workloads")
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        if a["workloads"][name].get("definition") != b["workloads"][name].get("definition"):
            found.append(f"workload {name} is defined differently (its specs changed)")
    return found


def _cell(metric: Dict[str, Any]) -> str:
    runs = metric.get("samples") or []
    if not runs:
        return f"{metric['value']:.6g}"
    q1, q3 = quartiles(runs)
    return f"{metric['value']:.6g} [{q1:.6g}, {q3:.6g}]"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[List[Tuple[str, ...]], List[str]]:
    """Rows ``(workload, metric, A, B, bound, verdict, note)`` and the
    exact per-layer counts that differ."""
    rows: List[Tuple[str, ...]] = []
    differing: List[str] = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        changed = wa.get("schedule_digest") != wb.get("schedule_digest")
        for metric, (_unit, better, bound) in END_TO_END.items():
            ma = wa.get("end_to_end", {}).get(metric)
            mb = wb.get("end_to_end", {}).get(metric)
            if ma is None or mb is None:
                continue
            note = "schedule changed" if changed and bound == 0.0 else ""
            rows.append((name, metric, _cell(ma), _cell(mb),
                         "exact" if bound == 0.0 else f"{100 * bound:.0f}%",
                         judge(ma, mb, bound, better), note))
        la, lb = wa.get("per_layer", {}), wb.get("per_layer", {})
        for metric in la:
            if (metric in lb and la[metric]["unit"] in EXACT_UNITS
                    and la[metric]["value"] != lb[metric]["value"]):
                differing.append(f"{name} {metric}: {la[metric]['value']!r} -> "
                                 f"{lb[metric]['value']!r} {la[metric]['unit']}")
    return rows, differing


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="report of the parent (or first) runs")
    parser.add_argument("b", help="report of the change (or second) runs")
    parser.add_argument("--force", action="store_true",
                        help="compare even when seeds, definitions or hosts differ")
    args = parser.parse_args(argv)
    with open(args.a) as fh:
        a = json.load(fh)
    with open(args.b) as fh:
        b = json.load(fh)
    problems = mismatches(a, b)
    for problem in problems:
        print(f"MISMATCH {problem}")
    if problems and not args.force:
        print("refusing to compare; pass --force to compare anyway")
        return 2
    rows, differing = compare(a, b)
    header = ("workload", "metric", "A value [q1, q3]", "B value [q1, q3]",
              "bound", "verdict", "")
    widths = [max(len(row[i]) for row in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    if differing:
        print(f"\nexact per-layer counts that differ ({len(differing)}):")
        for line in differing:
            print(f"  {line}")
    else:
        print("\nexact per-layer counts: all equal")
    tally = {v: sum(row[5] == v for row in rows)
             for v in ("better", "same", "worse", "unresolved")}
    print("rows: " + ", ".join(f"{n} {v}" for v, n in tally.items()))
    return 1 if tally["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
