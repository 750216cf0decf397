#!/usr/bin/env python3
"""Benchmark of sinespikes: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload sweep-n50 --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. One benchmark process drives a closed loop with one caller: the
next operation starts when the previous one has returned, until
``--seconds`` have passed. BLAS and OpenMP are pinned to one thread before
numpy is imported; the sweep's process pool gets one worker per core.

``--trace 0`` reports the end-to-end metrics, with every timing adjusted
for the machine's drifting speed (speed.py). ``--trace 1`` runs the loop
untraced for half the time, replays the same operations with the layer
wrappers of ``layers.py`` installed, checks that both passes produced
identical outputs and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A record of the run
(environment, every operation, set-up samples) is written to
``.perfbench_out/`` and, for traced runs, the spans as gzip JSON lines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path

# stdlib only: numpy must not be imported before the thread pinning in main()
import stats
from tracing import Tracer, write_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# set-up is repeated in fresh processes and reported as the median
SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 120

# name -> (unit, better), in the order of BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "p50_adj_s": ("s", "lower"),
    "throughput_adj_per_s": ("1/s", "higher"),
    "success_rate": ("ratio", "higher"),
}


def closed_loop(run_op, seconds: float | None = None, count: int | None = None,
                probe=None) -> list:
    """[(seconds, OpResult)] for ops 0, 1, ... until ``seconds`` pass (at least
    one op) or ``count`` ops ran.

    An op that raises is recorded as one failed op with its traceback as the
    problem, so one bad input cannot hide the rest of the run. A ``SpeedProbe``
    is sampled before the first op, between ops and after the last one,
    outside the op timings, and told when each op starts.
    """
    from workloads import OpResult

    def more():
        if count is not None:
            return len(ops) < count
        return not ops or time.perf_counter() - start < seconds

    ops = []
    start = time.perf_counter()
    if probe is not None:
        probe.sample()
    while more():
        if probe is not None:
            probe.mark()
        t0 = time.perf_counter()
        try:
            result = run_op(len(ops))
        except Exception:
            result = OpResult(1, 1, 0, None, (traceback.format_exc(),))
        ops.append((time.perf_counter() - t0, result))
        if probe is not None:
            probe.maybe_sample()
    if probe is not None:
        probe.sample()
    return ops


def _totals(ops) -> tuple[int, int, int]:
    return (sum(r.attempted for _, r in ops), sum(r.failed for _, r in ops),
            sum(r.succeeded for _, r in ops))


def end_to_end(ops, setup_samples, factors) -> tuple[dict, list[str]]:
    """Metric values and report lines (with sample counts) of an untraced loop.

    ``setup_samples`` are (seconds, speed factor) pairs, each factor read on
    one core right after its set-up; ``factors`` holds the speed factor of
    each op (see speed.py). The metrics are adjusted timings; the raw ones
    are reported beside them.
    """
    times = [dt for dt, _ in ops]
    adjusted = [dt * f for dt, f in zip(times, factors, strict=True)]
    attempted, _, succeeded = _totals(ops)
    setup = stats.median([raw * f for raw, f in setup_samples])
    setup_raw = stats.median([raw for raw, _ in setup_samples])
    p50 = stats.median(times)
    throughput = attempted / sum(times)
    values = {
        "setup_s": setup,
        "p50_adj_s": stats.median(adjusted),
        "throughput_adj_per_s": attempted / sum(adjusted),
        "success_rate": succeeded / attempted,
    }
    lines = [
        f"setup_s = {values['setup_s']:.4f} s (median of {len(setup_samples)} set-ups, "
        f"each adjusted by its own speed factor; raw median {setup_raw:.4f} s)",
        f"p50_adj_s = {values['p50_adj_s']:.4f} s (raw p50 {p50:.4f} s of {len(times)} ops, "
        f"each adjusted by its own speed factor; median factor {stats.median(factors):.4f})",
    ]
    tail = stats.tail_percentile(len(times))
    if tail is None:
        lines.append(f"no tail percentile: {len(times)} ops leave fewer than "
                     f"{stats.MIN_BEYOND} beyond p{stats.TAIL_LADDER[-1]:g}")
    else:
        lines.append(f"p{tail:g}_adj_s = {stats.percentile(adjusted, tail):.4f} s "
                     f"(raw {stats.percentile(times, tail):.4f} s; of {len(times)} ops, the "
                     f"highest percentile with >= {stats.MIN_BEYOND} beyond it)")
    lines += [
        f"throughput_adj_per_s = {values['throughput_adj_per_s']:.4f} 1/s "
        f"(raw {throughput:.4f} 1/s: {attempted} items in {sum(times):.2f} s)",
        f"success_rate = {values['success_rate']:.4f} ({succeeded}/{attempted})",
    ]
    return values, lines


def traced_run(workload, seconds: float, tracer) -> tuple[dict, list, list[str], list[str]]:
    """Untraced loop for half the time, then a traced replay of the same ops.

    Returns (per-layer metrics, ops of both passes, problems, report lines).
    """
    import layers

    untraced = closed_loop(lambda i: workload.run_op(i, traced=False), seconds / 2)

    def run_traced_op(i):
        with tracer.span("op", op=i):
            return workload.run_op(i, traced=True)

    with tracer.patched(layers.targets()):
        traced = closed_loop(run_traced_op, count=len(untraced))

    problems = [f"op {i}: traced output differs from untraced"
                for i, ((_, u), (_, t)) in enumerate(zip(untraced, traced))
                if u.fingerprint != t.fingerprint]
    if hasattr(workload, "replay_trials"):
        pairs, mismatches = workload.replay_trials(tracer.spans)
        problems += [f"trial {p!r}: traced result differs from untraced" for p in mismatches]
        busy = sum(s.duration for s in tracer.spans if s.name == "cli.trial")
        pool_efficiency = busy / (workload.workers * sum(dt for dt, _ in untraced))
    else:
        pairs = [(t, u) for (u, _), (t, _) in zip(untraced, traced)]
        pool_efficiency = 0.0
    # median of per-op ratios, so one op disturbed by the machine does not set it
    overhead = stats.median([t / u for t, u in pairs]) - 1.0 if pairs else 0.0
    metrics = layers.layer_metrics(tracer.spans, pool_efficiency=pool_efficiency,
                                   overhead_share=overhead)
    lines = [f"{name} = {value:.6g} {layers.PER_LAYER[name][0]}"
             for name, value in metrics.items()]
    lines += [
        f"traced {len(traced)} ops, {len(tracer.spans)} spans; overhead measured over "
        f"{len(pairs)} traced/untraced pairs",
        "determinism check: " + ("FAILED" if problems else "passed"),
    ]
    return metrics, untraced + traced, problems, lines


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(workers: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": workers,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def setup_in_subprocess(args) -> tuple[float, float]:
    """(set-up seconds, speed factor) of the same workload and seed in a fresh
    interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    # its own process group, so a set-up that overruns is killed with any
    # pool workers it started, and all of them are waited for
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up subprocess failed ({proc.returncode}): {stderr}")
    result = json.loads(stdout.strip().splitlines()[-1])
    return float(result["setup_s"]), float(result["speed_factor"])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print it as JSON and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "sinespikes" / "__init__.py").is_file():
        print(f"no source tree: {src / 'sinespikes'} is missing", file=sys.stderr)
        return 2

    setup_start = time.perf_counter()
    sys.path.insert(0, str(src))
    # these import numpy and sinespikes, which is part of set-up
    import layers
    import sinespikes
    import workloads
    from speed import SpeedProbe, single_core_factor

    if Path(sinespikes.__file__).resolve().parent != (src / "sinespikes").resolve():
        print(f"imported sinespikes from {sinespikes.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        print(f"unknown workload {args.workload!r}; choose from {workloads.NAMES}",
              file=sys.stderr)
        return 2

    workers = len(os.sched_getaffinity(0))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = workloads.make(args.workload, args.seed, workdir, workers)
        if args.trace:
            tracer = Tracer()
            # synthesis is traced (it feeds synth.ms); the warm-up is not
            with tracer.patched(layers.targets()):
                workload.synthesize()
        else:
            workload.synthesize()
        workload.warm_up()
        setup_s = time.perf_counter() - setup_start
        # set-up is mostly single-threaded, and the machine's speed drifts
        # within seconds, so each set-up gets its own one-core reading
        setup_sample = (setup_s, single_core_factor())
        if args.setup_only:
            print(json.dumps({"setup_s": setup_sample[0], "speed_factor": setup_sample[1]}))
            return 0

        env = environment(workers)
        record = {"args": vars(args), "environment": env}
        if args.trace:
            metrics, ops, problems, lines = traced_run(workload, args.seconds, tracer)
            units = {name: layers.PER_LAYER[name][0] for name in metrics}
            spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl.gz"
            write_spans(spans_path, tracer.spans)
            lines.append(f"spans written to {spans_path.relative_to(ROOT)}")
        else:
            setup_samples = [setup_sample] + [setup_in_subprocess(args)
                                              for _ in range(SETUP_SAMPLES - 1)]
            probe = SpeedProbe(1 if workload.single_threaded else workers)
            try:
                ops = closed_loop(lambda i: workload.run_op(i, traced=False), args.seconds,
                                  probe=probe)
            finally:
                probe.close()
            factors = probe.op_factors()
            metrics, lines = end_to_end(ops, setup_samples, factors)
            problems = []
            units = {name: END_TO_END[name][0] for name in metrics}
            record.update(setup_samples=setup_samples, speed_samples=probe.groups,
                          op_factors=factors)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, _ = _totals(ops)
    problems += [p for _, r in ops for p in r.problems]
    correct = failed == 0 and not problems
    labels = dict(zip(("p50_adj_s", "throughput_adj_per_s", "success_rate"), workload.labels))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas']} threads=1 commit={env['git_commit']}")
    for line in lines:
        name = line.split(" ", 1)[0]
        print(f"{line}  [{labels[name]}]" if name in labels else line)
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print(f"ops: attempted={attempted} failed={failed}")

    record.update(correct=correct, attempted=attempted, failed=failed, metrics=metrics,
                  problems=problems,
                  ops=[{"seconds": dt, "attempted": r.attempted, "failed": r.failed,
                        "succeeded": r.succeeded} for dt, r in ops])
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
