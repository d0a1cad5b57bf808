"""Interleaved A/B of perfbench: a git revision against this checkout.

Usage, from anywhere inside the checkout::

    python benchmarks/ab.py REV --workload campaign --seed 0 --seconds 25

REV is checked out with ``git worktree add --detach`` under a temporary
directory (no network).  Ten pairs of ``perfbench/run.py`` runs follow,
one in REV's tree and one in this working tree (uncommitted edits
included), swapping every pair which side runs first, so drift in the
host's speed lands on both sides alike.  The arguments after REV go to
``perfbench/run.py`` unchanged.

For each end-to-end metric of ``BENCHMARK.json`` it prints each side's
median [first quartile - third quartile], the pairs each side won (a
tie counts for neither) and a verdict against the metric's bound:
``within``, ``WORSE``, or ``unresolved`` when REV's own quartiles are
further apart than the bound allows.  The worktree is removed on exit.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Pairs of runs: the fewest that can show a gain won on nine of ten.
PAIRS = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile of *values*."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(base: list[str], change: list[str], declared: list[dict]):
    """One row per declared end-to-end metric, pair i = base[i], change[i].

    *base* and *change* hold the JSON result line each perfbench run
    printed last; *declared* is ``BENCHMARK.json``'s ``end_to_end`` list,
    which gives each metric's better direction and bound.
    """
    a_runs = [json.loads(line) for line in base]
    b_runs = [json.loads(line) for line in change]
    rows = []
    for metric in declared:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "higher" else -1
        a = [run["metrics"][name]["value"] for run in a_runs]
        b = [run["metrics"][name]["value"] for run in b_runs]
        a_q, b_q = quartiles(a), quartiles(b)
        if min(sign * y for y in b) > max(sign * x for x in a):
            verdict = "within"
        elif a_q[2] - a_q[0] > bound * abs(a_q[1]):
            verdict = "unresolved"
        elif sign * (b_q[1] - a_q[1]) >= -bound * abs(a_q[1]):
            verdict = "within"
        else:
            verdict = "WORSE"
        rows.append({
            "name": name,
            "unit": metric["unit"],
            "base": a_q,
            "change": b_q,
            "change_won": sum(sign * (y - x) > 0 for x, y in zip(a, b)),
            "base_won": sum(sign * (x - y) > 0 for x, y in zip(a, b)),
            "verdict": verdict,
        })
    failed = [sum(r["failed"] for r in runs) for runs in (a_runs, b_runs)]
    attempted = [sum(r["attempted"] for r in runs) for runs in (a_runs, b_runs)]
    return rows, failed, attempted


def run_perfbench(checkout: Path, args: list[str]) -> tuple[str, str]:
    """One perfbench run in *checkout*: (its result line, its digest line)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"perfbench failed in {checkout}:\n{proc.stderr[-2000:]}")
    digest = next((ln for ln in lines if ln.startswith("digest ")), "no digest")
    return lines[-1], digest


def main(argv: list[str]) -> int:
    if not argv or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    rev, args = argv[0], argv[1:]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    base: list[str] = []
    change: list[str] = []
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        tree = Path(tmp) / "rev"
        git = ["git", "-C", str(ROOT), "worktree"]
        subprocess.run([*git, "add", "--quiet", "--detach", str(tree), rev], check=True)
        try:
            for pair in range(PAIRS):
                sides = [("rev", tree, base), ("change", ROOT, change)]
                for label, checkout, results in sides[:: 1 if pair % 2 else -1]:
                    line, digest = run_perfbench(checkout, args)
                    results.append(line)
                    print(f"pair {pair + 1}/{PAIRS} {label:<6} {digest}", flush=True)
        finally:
            subprocess.run([*git, "remove", "--force", str(tree)], check=False)

    rows, failed, attempted = summarize(base, change, declared)
    print(f"\n{rev} vs this checkout, {PAIRS} pairs; median [Q1-Q3]")
    print(f"  {'metric':<16} {'unit':<5} {'rev':>30} {'change':>30}  won  lost  bound")
    for row in rows:
        cells = ["{1:.4g} [{0:.4g}-{2:.4g}]".format(*row[side])
                 for side in ("base", "change")]
        print(f"  {row['name']:<16} {row['unit']:<5} {cells[0]:>30} {cells[1]:>30}"
              f"  {row['change_won']:>3}  {row['base_won']:>4}  {row['verdict']}")
    print(f"  failed/attempted: rev {failed[0]}/{attempted[0]}, "
          f"change {failed[1]}/{attempted[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
