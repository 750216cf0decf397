#!/usr/bin/env python3
"""Run one workload once per seed and report each metric's run-to-run spread.

    python3 perfbench/spread.py --workload sweep-n50 --seeds 1-10

Each run is a fresh ``perfbench/run.py`` process with BENCHMARK.json's
``run_seconds``. For every metric it prints the median, the quartiles of
``statistics.quantiles(n=4)`` and their distance as a share of the median,
next to the metric's bound. The raw results go to
``.perfbench_out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = []
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        results.append(result)
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values}", flush=True)

    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    (ROOT / ".perfbench_out" / f"spread-{args.workload}.json").write_text(
        json.dumps(results, indent=1))
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = stats.quartile_spread(values) if len(values) >= 2 and med else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
        print(f"{name:32} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6} {flag}")
    total = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"failed {failed} of {total} attempted; all correct: "
          f"{all(r['correct'] for r in results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
