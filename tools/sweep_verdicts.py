#!/usr/bin/env python3
"""Compare the trial verdicts of a fixed sweep at a base revision and in the working tree.

    python3 tools/sweep_verdicts.py --base HEAD

The committed files of ``--base`` are exported with ``git archive`` (as
``tools/bench_pairs.py`` does). Then one ``phase-transition`` call runs on
each tree through ``tools/parity.py``'s ``run_cli`` (``python -m
sinespikes.cli`` with that tree's ``src`` on ``PYTHONPATH`` and one BLAS
thread): N=50, f1=0.2, delta*N from 0.1 to 1.5 in
steps of 0.2, L in {1, 3, 5}, 4 trials per cell (96 trials), each capped at
3000 iterations, ``--seed 0 --threads 2``. Trial seeds depend only on the
base seed and the cell, so both sides draw the same instances.

The script prints each trial whose verdict differs, each cell's success
rate on both sides, each side's total ADMM iterations (split into resolved
cells, delta*N >= 1.0, and unresolved ones) and each side's wall time for
its sweep call, and exits 1 if any cell's rate dropped, 0 otherwise. The
two calls run one after the other, so their wall times compare the two
trees on the same machine.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import tempfile
import time
from pathlib import Path

CALL_TIMEOUT_S = 1800
N_SENSORS = 50
CONFIG = {
    "synthesis": {"n_sensors": N_SENSORS},
    "phase_transition": {"f1": 0.2, "delta_start": 0.1, "delta_step": 0.2, "delta_stop": 1.5,
                         "snapshot_counts": [1, 3, 5], "trials": 4},
    "solver": {"max_iterations": 3000},
}
ARGS = ["--seed", "0", "--threads", "2"]


def run_sweep(tree: Path, work: Path) -> tuple[str, float]:
    """Run the sweep on the source tree ``tree`` in ``work``; returns its
    trials.csv and the call's wall time in seconds."""
    from parity import run_cli  # tools/ is on sys.path when run as a script

    start = time.perf_counter()
    run_cli(tree, work, CONFIG, ["phase-transition", *ARGS], CALL_TIMEOUT_S).check_returncode()
    seconds = time.perf_counter() - start
    return (work / "out" / "trials.csv").read_text(), seconds


def read_trials(text: str) -> dict[tuple[int, float, int], bool]:
    """trials.csv as (L, delta*N, seed) -> success; delta*N is rounded to 9 places."""
    return {(int(row["L"]), round(float(row["delta"]) * N_SENSORS, 9), int(row["seed"])):
            row["success"] == "1"
            for row in csv.DictReader(io.StringIO(text))}


def iteration_totals(text: str) -> tuple[int, int] | None:
    """(resolved, unresolved) sums of the iterations column of trials.csv.

    A trial is resolved when delta*N >= 1.0; a trial that raised has an
    empty cell and adds nothing. None if the sweep wrote no iterations
    column, as trees older than that column do.
    """
    reader = csv.DictReader(io.StringIO(text))
    if "iterations" not in (reader.fieldnames or ()):
        return None
    totals = [0, 0]
    for row in reader:
        unresolved = round(float(row["delta"]) * N_SENSORS, 9) < 1.0
        totals[unresolved] += int(row["iterations"] or 0)
    return totals[0], totals[1]


def iterations_line(side: str, totals: tuple[int, int] | None) -> str:
    """One line with a side's total ADMM iterations, split as ``iteration_totals`` splits them."""
    if totals is None:
        return f"ADMM iterations: {side} not recorded"
    resolved, unresolved = totals
    return (f"ADMM iterations: {side} {resolved + unresolved} ({resolved} resolved, "
            f"{unresolved} unresolved)")


def compare(base: dict, change: dict) -> tuple[list[str], list[str], bool]:
    """(one line per trial whose verdict differs, one line per cell, whether a rate dropped).

    Both sides must hold the same trials.
    """
    if base.keys() != change.keys():
        raise ValueError("the two sweeps ran different trials")
    changed = [f"L={L} delta*N={dn:g} seed={seed}: {base[L, dn, seed]:d} -> "
               f"{change[L, dn, seed]:d}"
               for L, dn, seed in sorted(base) if base[L, dn, seed] != change[L, dn, seed]]
    cells: dict[tuple[int, float], list[tuple[bool, bool]]] = {}
    for (L, dn, seed), ok in base.items():
        cells.setdefault((L, dn), []).append((ok, change[L, dn, seed]))
    lines, dropped = [], False
    for (L, dn), pairs in sorted(cells.items()):
        before = sum(b for b, _ in pairs) / len(pairs)
        after = sum(c for _, c in pairs) / len(pairs)
        dropped |= after < before
        mark = "  dropped" if after < before else ""
        lines.append(f"L={L} delta*N={dn:g}: base {before:.2f}, change {after:.2f}{mark}")
    return changed, lines, dropped


def timing(base_s: float, change_s: float) -> str:
    """One line with each side's wall time and the change's as a multiple of the base's."""
    return f"wall time: base {base_s:.1f} s, change {change_s:.1f} s ({change_s / base_s:.2f}x)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="revision to compare against, e.g. HEAD")
    args = parser.parse_args(argv)

    from bench_pairs import ROOT, export_revision  # tools/ is on sys.path when run as a script

    with tempfile.TemporaryDirectory(prefix="sweep-verdicts-") as tmp:
        tmp = Path(tmp)
        sha = export_revision(args.base, tmp / "tree")
        base_text, base_s = run_sweep(tmp / "tree", tmp / "base")
        change_text, change_s = run_sweep(ROOT, tmp / "change")
    base, change = read_trials(base_text), read_trials(change_text)
    changed, cells, dropped = compare(base, change)
    totals = [iterations_line("base", iteration_totals(base_text)),
              iterations_line("change", iteration_totals(change_text))]
    for line in changed + cells + totals + [timing(base_s, change_s)]:
        print(line)
    print(f"{len(changed)} of {len(base)} verdicts differ between {sha[:12]} and the working "
          f"tree; {'a cell rate dropped' if dropped else 'no cell rate dropped'}")
    return 1 if dropped else 0


if __name__ == "__main__":
    sys.exit(main())
