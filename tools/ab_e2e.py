#!/usr/bin/env python
"""Alternating A/B of one end-to-end workload: a parent revision against this tree.

``benchmarks/e2e/compare.py`` judges one pair of reports; a *claim* needs
the pairs (ROADMAP: an alternating A/B of parent and child in one session,
at least ten pairs, flipping which side runs first).  This runs them::

    python tools/ab_e2e.py --parent HEAD~1 --workload sat_lbn [--pairs 10] [--seed 2017]

The parent's committed files are unpacked with ``git archive`` into a
temporary directory (removed on exit; nothing is registered in ``.git``),
``benchmarks/e2e/run.py --workload ... --seed ... --trace 0`` runs in the two
trees in turn, and the last-line JSON of every run is printed, followed by
each side's median and quartiles for the three contract metrics, the pairs
won and the verdict: a gain only when there are at least ten pairs, the
change wins at least nine tenths of them (ties count for neither) and the
medians differ by more than the distance between the parent's quartiles.
Exit code 1 when any run reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]

#: the contract metrics of ``BENCHMARK.json``: name -> which way is better
METRICS = {"setup_s": "lower", "deliveries_per_s": "higher", "peak_rss_mb": "lower"}

#: pairs below which no verdict is given, whatever the runs say
MIN_PAIRS = 10


def quartiles(runs: Sequence[float]) -> Tuple[float, float, float]:
    """(lower quartile, median, upper quartile), as ``benchmarks/e2e/run.py``
    takes them; one run is its own quartiles."""
    if len(runs) < 2:
        return runs[0], runs[0], runs[0]
    q1, q2, q3 = statistics.quantiles(runs, n=4)
    return q1, q2, q3


def verdict(parent: Sequence[float], change: Sequence[float], better: str) -> Dict[str, object]:
    """Judge paired runs of one metric (``parent[i]`` and ``change[i]`` are one pair)."""
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    lost = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    shift = sign * (c_med - p_med)
    clear = abs(shift) > p_q3 - p_q1
    pairs = len(parent)
    if pairs < MIN_PAIRS:
        word = f"no claim (fewer than {MIN_PAIRS} pairs)"
    elif clear and won >= 0.9 * pairs:
        word = "gain"
    elif clear and lost >= 0.9 * pairs:
        word = "loss"
    else:
        word = "no claim"
    return {"verdict": word, "won": won, "lost": lost, "pairs": pairs,
            "shift_frac": shift / p_med if p_med else 0.0}


def run_once(tree: Path, args: argparse.Namespace) -> Dict[str, object]:
    command = [sys.executable, "benchmarks/e2e/run.py", "--workload", args.workload,
               "--seed", str(args.seed), "--trace", "0"]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} failed in {tree}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--smoke", action="store_true", help="toy sizes (keeps the tool alive in CI)")
    args = parser.parse_args(argv)

    runs: Dict[str, List[Dict[str, object]]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="ab_e2e_") as tmp:
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        trees = {"parent": Path(tmp), "change": ROOT}
        for pair in range(args.pairs):
            for side in (("parent", "change") if pair % 2 == 0 else ("change", "parent")):
                record = run_once(trees[side], args)
                runs[side].append(record)
                shown = {name: round(record["metrics"][name]["value"], 3) for name in METRICS}
                print(f"pair {pair + 1:2d} {side:6s} correct={record['correct']} "
                      f"failed={record['failed']}/{record['attempted']} {shown}")

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs, parent {args.parent}")
    for name, better in METRICS.items():
        sides = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        for side, values in sides.items():
            q1, med, q3 = quartiles(values)
            print(f"  {name:17s} {side:6s} median {med:10.3f}  quartiles {q1:.3f}-{q3:.3f}  "
                  f"range {min(values):.3f}-{max(values):.3f}")
        v = verdict(sides["parent"], sides["change"], better)
        print(f"  {name:17s} change won {v['won']}/{v['pairs']}, lost {v['lost']}, "
              f"median moved {v['shift_frac']:+.1%} ({better} is better): {v['verdict']}")
    return 0 if all(r["correct"] for side in runs.values() for r in side) else 1


if __name__ == "__main__":
    raise SystemExit(main())
