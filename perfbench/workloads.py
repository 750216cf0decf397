"""The benchmark's workloads, each driven through the public API of sinespikes.

Every workload has the same shape:

* ``synthesize()`` builds the inputs from the benchmark seed;
* ``warm_up()`` runs one untimed operation so lazy set-up (LAPACK
  initialization, the worker pool's first fork) is not timed;
* ``run_op(index, traced)`` performs operation ``index`` and checks its
  output, returning an ``OpResult``. The same index always gets the same
  input, so a traced pass can replay the untraced one exactly;
* ``single_threaded`` says whether an op runs on one core or on all of
  them, which is how many cores the speed probe (speed.py) measures.

Each workload is chosen so that one layer dominates it (see README.md).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sinespikes import certificate, cli, dual_analysis, synthesis
from sinespikes.model import default_lambda
from sinespikes.solver import SolverOptions

import layers

# Warm-up solves stop after this many ADMM iterations: enough to initialize
# every code path of one demix, without paying for a full solve.
WARMUP_ITERATIONS = 25

# Separate seed streams so instances, warm-up inputs and sweep calls never share draws.
_STREAM_WARMUP, _STREAM_OP, _STREAM_SWEEP_F1 = 0, 1, 2


def op_seed(seed: int, stream: int, index: int) -> int:
    """Seed of input ``index`` in ``stream``, derived from the benchmark seed."""
    return int(np.random.SeedSequence([seed, stream, index]).generate_state(1)[0])


@dataclass(frozen=True)
class OpResult:
    """Outcome of one operation.

    ``attempted``/``failed`` count the workload's unit of work (a demix, a
    sweep trial, a certificate); ``succeeded`` counts those meeting the
    workload's success rule. ``fingerprint`` must be identical between the
    untraced and the traced run of the same index.
    """

    attempted: int
    failed: int
    succeeded: int
    fingerprint: object
    problems: tuple = ()


class DemixWorkload:
    """Sequential ``dual_analysis.demix`` calls at a resolved separation.

    ``eigh`` inside ``project_psd`` dominates: this is the workload for the
    solver's per-iteration cost. It is not listed in BENCHMARK.json: a run
    holds too few of its ops to be steady (see README.md).
    """

    name = "demix-n101"
    labels = ("demix.p50_s", "demix.demixes_per_s", "demix.success_rate")
    single_threaded = True

    def __init__(self, seed: int, n_sensors: int = 101, n_snapshots: int = 5,
                 n_frequencies: int = 3, separation_cells: float = 2.5,
                 total_outliers: int = 10, n_instances: int = 8):
        self.seed = seed
        self.configs = [
            synthesis.SynthesisConfig(
                n_sensors=n_sensors,
                n_snapshots=n_snapshots,
                n_frequencies=n_frequencies,
                min_separation=separation_cells / n_sensors,
                total_outliers=total_outliers,
                outlier_mode="distinct-sensors-overall",
                seed=op_seed(seed, _STREAM_OP, i),
            )
            for i in range(n_instances)
        ]
        self.lam = default_lambda(n_sensors)
        self.instances = []

    def synthesize(self) -> None:
        self.instances = [synthesis.synth_instance(cfg) for cfg in self.configs]

    def warm_up(self) -> None:
        dual_analysis.demix(self.instances[0].measurement, self.lam,
                            SolverOptions(max_iterations=WARMUP_ITERATIONS))

    def run_op(self, index: int, traced: bool) -> OpResult:
        inst = self.instances[index % len(self.instances)]
        report, solution = dual_analysis.demix(inst.measurement, self.lam)
        rows = np.sort(report.estimated_outlier_rows)
        problems = []
        if not solution.converged:
            problems.append(f"not converged after {solution.iterations} iterations")
        if not dual_analysis.success(report.estimated_frequencies, inst.frequencies):
            problems.append(f"frequencies {report.estimated_frequencies.tolist()} "
                            f"!= {inst.frequencies.tolist()}")
        if not np.array_equal(rows, np.sort(inst.outlier_rows)):
            problems.append(f"outlier rows {rows.tolist()} != {inst.outlier_rows.tolist()}")
        fingerprint = (solution.iterations, report.estimated_frequencies.tolist(), rows.tolist())
        ok = not problems
        return OpResult(1, int(not ok), int(ok), fingerprint, tuple(problems))


class SweepWorkload:
    """The phase-transition sweep through ``cli.main(["phase-transition", ...])``.

    Cells straddle the transition: at delta*N = 0.1 every trial runs to the
    iteration cap, at delta*N = 1.5 trials converge in ~900-1800 iterations.
    No cell sits at the transition itself, where a trial sometimes converges
    and sometimes hits the cap, so every call does the same amount of work.
    Unresolved trials would need 18k-59k iterations, so the cap only sets
    how long they run; 3000 keeps a call near 9 s, so a run holds several.
    The untraced run uses one pool worker per core; the traced run uses one
    so the in-process wrappers see every trial.
    """

    name = "sweep-n50"
    labels = ("sweep.call_p50_s", "sweep.trials_per_s", "sweep.success_rate")
    single_threaded = False
    trials = 1
    total_outliers = 10

    def __init__(self, seed: int, workdir: Path, workers: int, n_sensors: int = 50,
                 snapshot_counts=(1, 3, 5), delta_n=(0.1, 1.5), max_iterations: int = 3_000):
        steps = np.diff(delta_n)
        if len(delta_n) > 1 and not np.allclose(steps, steps[0]):
            raise ValueError("the CLI sweeps an evenly spaced delta*N grid")
        self.seed = seed
        self.workdir = workdir
        self.workers = workers
        self.n_sensors = n_sensors
        self.snapshot_counts = tuple(snapshot_counts)
        self.delta_n = tuple(delta_n)
        self.max_iterations = max_iterations
        self.config_path = workdir / "sweep.json"

    def _config(self, snapshot_counts, delta_n, max_iterations) -> dict:
        step = delta_n[1] - delta_n[0] if len(delta_n) > 1 else 1.0
        f1 = np.random.Generator(np.random.Philox(op_seed(self.seed, _STREAM_SWEEP_F1, 0))).random()
        return {
            "synthesis": {"n_sensors": self.n_sensors},
            "phase_transition": {
                "f1": float(f1),
                "delta_start": delta_n[0],
                "delta_step": step,
                "delta_stop": delta_n[-1] + (0.0 if len(delta_n) > 1 else step / 4),
                "snapshot_counts": list(snapshot_counts),
                "trials": self.trials,
                "total_outliers": self.total_outliers,
            },
            "solver": {"max_iterations": max_iterations},
        }

    def synthesize(self) -> None:
        self.config_path.write_text(json.dumps(
            self._config(self.snapshot_counts, self.delta_n, self.max_iterations)))

    def warm_up(self) -> None:
        path = self.workdir / "warmup.json"
        path.write_text(json.dumps(
            self._config(self.snapshot_counts[:1], self.delta_n[:1], WARMUP_ITERATIONS)))
        code, err = self._call(path, op_seed(self.seed, _STREAM_WARMUP, 0),
                               self.workdir / "warmup", self.workers)
        if code != 0:
            raise RuntimeError(f"warm-up sweep exited with {code}: {err}")

    def _call(self, config: Path, seed: int, out: Path, workers: int) -> tuple[int, str]:
        """Run the CLI in-process; returns (exit code, everything it reported on stderr).

        Both ``sys.stderr`` and file descriptor 2 point at one temporary file
        for the call: forked pool workers inherit the former, workers started
        any other way the latter.
        """
        argv = ["phase-transition", "--config", str(config), "--seed", str(seed),
                "--threads", str(workers), "--out", str(out)]
        with tempfile.TemporaryFile(dir=self.workdir) as err, \
                open(err.fileno(), "w", buffering=1, closefd=False) as err_text:
            sys.stderr.flush()
            saved = os.dup(2)
            os.dup2(err.fileno(), 2)
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err_text):
                    code = cli.main(argv)
            finally:
                err_text.flush()
                os.dup2(saved, 2)
                os.close(saved)
            err.seek(0)
            return code, err.read().decode("utf-8", errors="replace")

    def run_op(self, index: int, traced: bool) -> OpResult:
        """One CLI call; a call that exits non-zero or raises fails all its trials."""
        workers = 1 if traced else self.workers
        out = self.workdir / f"call{index}-w{workers}"
        expected = len(self.snapshot_counts) * len(self.delta_n) * self.trials
        try:
            code, err = self._call(self.config_path, op_seed(self.seed, _STREAM_OP, index),
                                   out, workers)
        except Exception:
            return OpResult(expected, expected, 0, None, (traceback.format_exc(),))
        problems = []
        if code != 0:
            problems.append(f"phase-transition exited with {code}: {err.strip()}")
            return OpResult(expected, expected, 0, None, tuple(problems))
        failed = sum("trial failed" in line for line in err.splitlines())
        trials_text = (out / "trials.csv").read_text()
        phase_text = (out / "phase_transition.csv").read_text()
        trials = list(csv.DictReader(io.StringIO(trials_text)))
        phase = list(csv.DictReader(io.StringIO(phase_text)))
        if len(trials) != expected:
            problems.append(f"trials.csv has {len(trials)} rows, expected {expected}")
        cells = {}
        for row in trials:
            cells.setdefault((int(row["L"]), float(row["delta"])), []).append(int(row["success"]))
        rates = {(int(r["L"]), round(float(r["delta_times_N"]), 9)): float(r["success_rate"])
                 for r in phase}
        for (L, delta), flags in cells.items():
            rate = rates.get((L, round(delta * self.n_sensors, 9)))
            if rate is None or abs(rate - sum(flags) / len(flags)) > 1e-12:
                problems.append(f"phase_transition.csv disagrees with trials.csv at L={L}")
        if {L for L, _ in cells} != set(self.snapshot_counts) or len(rates) != len(cells):
            problems.append("sweep cells differ from the configured grid")
        if failed:
            problems.append(f"{failed} trial(s) reported 'trial failed'")
        succeeded = sum(int(r["success"]) for r in trials)
        if problems and not failed:
            failed = expected
        return OpResult(expected, failed, succeeded, (phase_text, trials_text), tuple(problems))

    def replay_trials(self, spans) -> tuple[list, list]:
        """Re-run the resolved-side trials of a traced pass without tracing.

        The untraced pass runs trials in parallel and the traced one
        serially, so whole calls cannot be compared for tracing overhead;
        the cheap trials are replayed serially instead. Returns the
        (traced, untraced) seconds of each and the payloads whose replay
        gave another result.
        """
        pairs, mismatches = [], []
        for span in spans:
            if span.name == "cli.trial" and span.attrs["delta_n"] >= layers.RESOLVED_DELTA_N:
                start = time.perf_counter()
                result = cli._phase_trial(span.attrs["payload"])
                pairs.append((span.duration, time.perf_counter() - start))
                if result != span.attrs["result"]:
                    mismatches.append(span.attrs["payload"])
        return pairs, mismatches


class CertificateWorkload:
    """Sequential ``certificate.run_certificate`` calls with default validation.

    No ADMM runs; the dense ``_poly_rows`` evaluation inside
    ``validate_certificate`` dominates.
    """

    name = "certificate-n401"
    labels = ("cert.p50_s", "cert.certificates_per_s", "cert.pass_rate")
    single_threaded = True
    n_frequencies = 2
    n_outliers = 5
    n_snapshots = 3

    def __init__(self, seed: int, n_sensors: int = 401, separation: float = 4 / 400,
                 options: certificate.ValidationOptions | None = None):
        self.seed = seed
        self.args = (n_sensors, self.n_frequencies, separation, self.n_outliers)
        self.options = options or certificate.ValidationOptions()

    def synthesize(self) -> None:
        """Nothing to build: ``run_certificate`` draws its instance from the op seed."""

    def _run(self, seed: int):
        return certificate.run_certificate(*self.args, n_snapshots=self.n_snapshots,
                                           seed=seed, opts=self.options)

    def warm_up(self) -> None:
        self._run(op_seed(self.seed, _STREAM_WARMUP, 0))

    def run_op(self, index: int, traced: bool) -> OpResult:
        _cert, report = self._run(op_seed(self.seed, _STREAM_OP, index))
        problems = () if report.passed else (f"certificate failed: {report.to_json()}",)
        fingerprint = json.dumps(report.to_json(), sort_keys=True)
        return OpResult(1, int(not report.passed), int(report.passed), fingerprint, problems)


def make(name: str, seed: int, workdir: Path, workers: int):
    if name == DemixWorkload.name:
        return DemixWorkload(seed)
    if name == SweepWorkload.name:
        return SweepWorkload(seed, workdir, workers)
    if name == CertificateWorkload.name:
        return CertificateWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


NAMES = (DemixWorkload.name, SweepWorkload.name, CertificateWorkload.name)
