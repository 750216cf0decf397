#!/usr/bin/env python3
"""Check that the CLI gives the same bytes at a base revision and in the working tree.

    python3 tools/parity.py --base HEAD

The committed files of ``--base`` are exported with ``git archive`` (as
``tools/bench_pairs.py`` does). Then a fixed list of CLI calls runs on each
tree, in order, each as ``python -m sinespikes.cli`` with that tree's
``src`` on ``PYTHONPATH`` and one BLAS thread. The calls cover every
command: ``synth`` with explicit and drawn frequencies, ``demix`` from a
config, from the same config capped at 75 iterations (three gap checks, no
two certified in a row, so the solve takes the cap's path and the call
exits 2) and at 60 (the last check falls off the 25-iteration schedule),
and from the saved instance of an earlier call, a two-cell
``phase-transition`` on two processes, and ``certificate`` with three
seeds, with no outliers, and with two lines 1e-6 apart, whose
ill-conditioned system (cond ~ 4e16) takes ``run_certificate``'s failure
path and writes a NaN report. Each call runs in its own directory, so the
paths it prints are the same on both sides.

Every output file, stdout, stderr and exit code is compared; the script
prints each difference and exits 1 if there is any, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CALL_TIMEOUT_S = 600

DEMIX_SYNTHESIS = {
    "n_sensors": 32, "n_snapshots": 2, "frequencies": [0.15, 0.62], "total_outliers": 4,
    "outlier_mode": "distinct-sensors-overall", "seed": 5}

# (name, config, arguments after the command); each call runs in work/<name>
# and writes to out/, so "../<name>/out" reads an earlier call's output
CALLS = [
    ("synth-explicit", {"synthesis": {
        "n_sensors": 32, "n_snapshots": 3, "frequencies": [0.1, 0.35, 0.7],
        "total_outliers": 5, "seed": 2}}, ["synth"]),
    ("synth-drawn", {"synthesis": {
        "n_sensors": 32, "n_snapshots": 2, "n_frequencies": 2, "min_separation": 0.1,
        "total_outliers": 4, "outlier_mode": "distinct-sensors-overall"}},
     ["synth", "--seed", "7"]),
    ("demix-config", {"synthesis": DEMIX_SYNTHESIS}, ["demix"]),
    ("demix-capped", {"synthesis": DEMIX_SYNTHESIS, "solver": {"max_iterations": 75}},
     ["demix"]),
    ("demix-capped-60", {"synthesis": DEMIX_SYNTHESIS, "solver": {"max_iterations": 60}},
     ["demix"]),
    ("demix-instance", {"instance": "../synth-drawn/out/instance.json"},
     ["demix", "--lambda", "0.15", "--grid", "4096"]),
    ("phase-transition", {
        "synthesis": {"n_sensors": 32},
        "phase_transition": {"delta_start": 1.0, "delta_step": 0.5, "delta_stop": 1.5,
                             "snapshot_counts": [2], "trials": 2, "total_outliers": 2}},
     ["phase-transition", "--threads", "2", "--seed", "11"]),
    ("certificate-seeds", {"certificate": {"n_sensors": 201, "seeds": 3}}, ["certificate"]),
    ("certificate-clean", {"certificate": {"n_sensors": 201, "n_outliers": 0}},
     ["certificate"]),
    ("certificate-failure", {"certificate": {
        "n_sensors": 21, "n_frequencies": 2, "separation": 1e-6, "n_outliers": 2,
        "n_snapshots": 2}}, ["certificate"]),
]


def run_cli(tree: Path, cwd: Path, config: dict, args: list[str],
            timeout: float) -> subprocess.CompletedProcess:
    """Run ``python -m sinespikes.cli <args> --config config.json --out out`` in ``cwd``.

    ``cwd`` is created and ``config`` written to its ``config.json``; the
    call imports the source tree ``tree`` and uses one BLAS thread.
    """
    cwd.mkdir(parents=True)
    (cwd / "config.json").write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, "-m", "sinespikes.cli", *args, "--config", "config.json",
           "--out", "out"]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=timeout)


def run_calls(tree: Path, work: Path) -> dict[str, tuple[int, str, str]]:
    """Run every call on the source tree ``tree`` under ``work``: name -> (exit, stdout, stderr)."""
    results = {}
    for name, config, args in CALLS:
        proc = run_cli(tree, work / name, config, args, CALL_TIMEOUT_S)
        results[name] = (proc.returncode, proc.stdout, proc.stderr)
    return results


def compare_dirs(base: Path, change: Path) -> list[str]:
    """One line per file that is on one side only or differs in its bytes."""
    def files(root):
        return {p.relative_to(root).as_posix(): p for p in root.rglob("*") if p.is_file()}

    left, right = files(base), files(change)
    diffs = [f"{name}: only in base" for name in sorted(left.keys() - right.keys())]
    diffs += [f"{name}: only in change" for name in sorted(right.keys() - left.keys())]
    diffs += [f"{name}: bytes differ" for name in sorted(left.keys() & right.keys())
              if left[name].read_bytes() != right[name].read_bytes()]
    return diffs


def compare_runs(base: dict, change: dict) -> list[str]:
    """One line per call whose exit code, stdout or stderr differ."""
    diffs = []
    for name in base:
        for label, b, c in zip(("exit code", "stdout", "stderr"), base[name], change[name]):
            if b != c:
                diffs.append(f"{name}: {label} differs: base {b!r}, change {c!r}")
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="revision to compare against, e.g. HEAD")
    args = parser.parse_args(argv)

    from bench_pairs import ROOT, export_revision  # tools/ is on sys.path when run as a script

    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        tmp = Path(tmp)
        sha = export_revision(args.base, tmp / "tree")
        base = run_calls(tmp / "tree", tmp / "base")
        change = run_calls(ROOT, tmp / "change")
        diffs = compare_runs(base, change) + compare_dirs(tmp / "base", tmp / "change")
    for name, (code, _out, _err) in change.items():
        print(f"{name}: exit {code}")
    for line in diffs:
        print(line)
    print(f"{len(diffs)} difference(s) between {sha[:12]} and the working tree "
          f"over {len(CALLS)} calls")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
