#!/usr/bin/env python3
"""Run the benchmark in pairs, one run on a base revision and one on the working tree.

    python3 tools/bench_pairs.py --workload certificate-n401 --base HEAD --seeds 231-240

For each seed, ``perfbench/run.py`` runs once in an export of the committed
files of ``--base`` and once in the working tree, each in its own process
with BENCHMARK.json's ``run_seconds``. The side that runs first alternates
from pair to pair, so a drift of the machine's speed favours neither. The
base side is exported with ``git archive`` into a temporary directory, so
it holds exactly what the revision committed, as a fresh checkout would.

``BENCH_<workload>.json`` (in the working tree unless ``--out`` says
otherwise) records every run, and for each end-to-end metric of
BENCHMARK.json the median and interquartile range of each side and the
number of pairs in which the working tree did better, with nproc and the
numpy version. It also records, and prints, whether a claimed gain on the
metric would be met: the working tree wins at least nine tenths of at least
ten pairs, a tie counting for neither side, and its median is better than
the base side's by more than the base side's interquartile range. For each
side it also records, and prints, the failed share: failed ops over
attempted ops, and the number of runs that reported
``correct=False``. The script only reads the benchmark's output; it does not
import or change anything under ``perfbench/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 1800


def seed_list(text: str) -> list[int]:
    """'231-240' or '3,5,8'."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def parse_result(stdout: str) -> dict:
    """The result object run.py prints as the last line of its output."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the benchmark printed nothing")
    return json.loads(lines[-1])


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) by ``statistics.quantiles(n=4)``; one value is its own quartiles."""
    values = [float(v) for v in values]
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def side_summary(values) -> dict:
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs, better: dict[str, str]) -> dict:
    """Per-metric medians, IQRs, wins and claim verdicts over (base result,
    change result) pairs.

    ``better`` maps each metric to "lower" or "higher". The change wins a
    pair when its value is strictly better; a tie is no win. ``claim_met``
    says that a gain on the metric may be claimed: at least ten pairs, wins
    in at least nine tenths of them, and a change median better than the
    base median by more than the base IQR.
    """
    summary = {}
    for name, direction in better.items():
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        sign = -1.0 if direction == "lower" else 1.0
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        base_side, change_side = side_summary(base), side_summary(change)
        gain = sign * (change_side["median"] - base_side["median"])
        summary[name] = {
            "better": direction,
            "base": base_side,
            "change": change_side,
            "wins": wins,
            "pairs": len(pairs),
            "claim_met": (len(pairs) >= 10 and 10 * wins >= 9 * len(pairs)
                          and gain > base_side["iqr"]),
        }
    return summary


def failure_summary(results) -> dict:
    """Failed ops over attempted ops, and the runs that reported ``correct=False``.

    The share is 0 when no op was attempted.
    """
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    return {
        "failed": failed,
        "attempted": attempted,
        "share": failed / attempted if attempted else 0.0,
        "incorrect_runs": sum(not r["correct"] for r in results),
        "runs": len(results),
    }


def export_revision(rev: str, dest: Path) -> str:
    """Extract the committed files of ``rev`` into ``dest``; returns its full hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return sha


def run_benchmark(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: seed {seed} exited {proc.returncode}\n{proc.stderr}")
    return parse_result(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--base", required=True, help="revision to compare against, e.g. HEAD")
    parser.add_argument("--seeds", required=True, help="'231-240' or '3,5,8'")
    parser.add_argument("--out", help="output file (default BENCH_<workload>.json)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    runs, pairs = [], []
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        base_root = Path(tmp)
        base_sha = export_revision(args.base, base_root)
        for index, seed in enumerate(seed_list(args.seeds)):
            pair = {}
            sides = [("base", base_root), ("change", ROOT)]
            for side, root in sides if index % 2 == 0 else sides[::-1]:
                result = run_benchmark(root, args.workload, seed, seconds)
                pair[side] = result
                runs.append(dict(result, seed=seed, side=side))
                values = {k: round(v["value"], 5) for k, v in result["metrics"].items()}
                print(f"seed {seed} {side}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} {values}",
                      flush=True)
            pairs.append((pair["base"], pair["change"]))

    summary = summarize(pairs, better)
    failures = {"base": failure_summary([b for b, _ in pairs]),
                "change": failure_summary([c for _, c in pairs])}
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True).stdout.strip()
    record = {
        "workload": args.workload,
        "base": base_sha,
        "change": f"working tree on {head}",
        "seeds": seed_list(args.seeds),
        "run_seconds": seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": metadata.version("numpy"),
        "python": platform.python_version(),
        "metrics": summary,
        "failures": failures,
        "runs": runs,
    }
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for name, s in summary.items():
        print(f"{name:22} base {s['base']['median']:.6g} (IQR {s['base']['iqr']:.3g})  "
              f"change {s['change']['median']:.6g} (IQR {s['change']['iqr']:.3g})  "
              f"wins {s['wins']}/{s['pairs']}  "
              f"claim {'met' if s['claim_met'] else 'not met'}")
    for side, f in failures.items():
        print(f"failed ops {side:6} {f['failed']}/{f['attempted']} ({f['share']:.3g}), "
              f"{f['incorrect_runs']} of {f['runs']} runs incorrect")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
