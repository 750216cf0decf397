"""Command-line harness: instance synthesis, demixing, sweeps, certificates.

Every command is driven by a JSON config file plus a handful of overriding
flags and is a pure function of (config, seed): identical inputs produce
identical output files. Numeric CSV cells use shortest round-trip decimal
representation.

Exit codes: 0 ok, 2 solver did not converge, 3 I/O failure, 4 invalid config
or command line.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import certificate as cert_mod
from . import trigpoly
from .dual_analysis import demix, success
from .errors import SineSpikesError
from .model import MixtureInstance, default_lambda
from .solver import SolverOptions
from .synthesis import SynthesisConfig, synth_instance

EXIT_OK = 0
EXIT_NO_CONVERGENCE = 2
EXIT_IO = 3
EXIT_CONFIG = 4

_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """splitmix64 finalizer; stable across platforms."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def trial_seed(base_seed: int, n_snapshots: int, delta_index: int, trial: int) -> int:
    """Schedule-independent per-trial seed for the sweep."""
    packed = (n_snapshots << 40) ^ (delta_index << 20) ^ trial
    return (base_seed ^ _mix64(packed)) & _MASK64


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(c) if isinstance(c, (int, str)) else _fmt(c) for c in row))
    path.write_text("\n".join(lines) + "\n")


# The keys a config may hold, per section (None is the top level). A key no
# command reads is rejected before any command runs.
_CONFIG_KEYS = {
    None: {"instance", "synthesis", "lambda", "solver", "seed", "threads",
           "phase_transition", "certificate"},
    "synthesis": {f.name for f in fields(SynthesisConfig)},
    "solver": {f.name for f in fields(SolverOptions)},
    "phase_transition": {"f1", "delta_start", "delta_step", "delta_stop",
                         "snapshot_counts", "trials", "total_outliers"},
    "certificate": {"n_sensors", "n_frequencies", "separation", "n_outliers",
                    "n_snapshots", "seeds", "grid_size"},
}


def _check_keys(config) -> None:
    for name, known in _CONFIG_KEYS.items():
        section = config if name is None else config.get(name, {})
        where = name or "the top level"
        if not isinstance(section, dict):
            raise ValueError(f"{where} of the config must be a JSON object")
        unknown = sorted(set(section) - known)
        if unknown:
            raise ValueError(f"unknown config key(s) in {where}: {', '.join(unknown)}")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    return json.loads(Path(path).read_text())


def _resolve_lambda(value, n_sensors: int) -> float:
    if value is None or value == "auto":
        return default_lambda(n_sensors)
    return float(value)


def _synth_config(section: dict, seed: int | None) -> SynthesisConfig:
    kwargs = dict(section)
    if "frequencies" in kwargs and kwargs["frequencies"] is not None:
        kwargs["frequencies"] = tuple(kwargs["frequencies"])
    if seed is not None:
        kwargs["seed"] = seed
    return SynthesisConfig(**kwargs)


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def cmd_synth(args, config: dict) -> int:
    cfg = _synth_config(config.get("synthesis", {}), args.seed)
    instance = synth_instance(cfg)
    out = _out_dir(args)
    instance.save(out / "instance.json")
    print(f"wrote {out / 'instance.json'} "
          f"(N={instance.n_sensors}, L={instance.n_snapshots}, "
          f"K={instance.frequencies.size}, |support|={instance.outlier_rows.size})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# demix
# ---------------------------------------------------------------------------


def _trace_rows(gamma: np.ndarray, grid: int | None):
    return zip(*trigpoly.scan(trigpoly.coefficients(gamma), grid))


def cmd_demix(args, config: dict) -> int:
    if "instance" in config:
        instance = MixtureInstance.load(config["instance"])
    else:
        instance = synth_instance(_synth_config(config.get("synthesis", {}), args.seed))
    lam = _resolve_lambda(args.lam or config.get("lambda"), instance.n_sensors)
    solver_opts = SolverOptions(**config.get("solver", {}))
    trigpoly.grid_points(instance.n_sensors, args.grid)  # before the solve
    report, solution = demix(instance.measurement, lam, solver_opts, args.grid)

    out = _out_dir(args)
    payload = report.to_json()
    payload["lambda"] = lam
    payload["objective"] = solution.objective
    payload["iterations"] = solution.iterations
    (out / "report.json").write_text(json.dumps(payload, indent=1))

    _write_csv(out / "dual_poly_trace.csv", ["f", "q_norm"],
               _trace_rows(solution.gamma, args.grid))
    norms = np.linalg.norm(solution.gamma, axis=1)
    _write_csv(out / "row_norms.csv", ["row", "gamma_row_norm", "lambda"],
               ((int(i), norms[i], lam) for i in range(norms.size)))
    diagnostics = solution.diagnostics
    if len(diagnostics) > 1 and diagnostics[-1, 0] == diagnostics[-2, 0]:
        diagnostics = diagnostics[:-1]  # the final row repeats a recorded iteration
    _write_csv(out / "solver_diagnostics.csv",
               ["iteration", "objective", "primal_residual", "dual_residual"],
               ((int(it), *values) for it, *values in diagnostics))

    print(f"frequencies: {[round(float(x), 6) for x in report.estimated_frequencies]}")
    print(f"outlier rows: {[int(i) for i in report.estimated_outlier_rows]}")
    print(f"duality gap: {report.duality_gap:.3e}  converged: {solution.converged}")
    return EXIT_OK if solution.converged else EXIT_NO_CONVERGENCE


# ---------------------------------------------------------------------------
# phase transition sweep
# ---------------------------------------------------------------------------


def _trial_config(n_sensors, n_snapshots, f1, delta, total_outliers, seed) -> SynthesisConfig:
    return SynthesisConfig(
        n_sensors=n_sensors,
        n_snapshots=n_snapshots,
        frequencies=(f1, (f1 + delta) % 1.0),
        total_outliers=total_outliers,
        outlier_mode="distinct-sensors-overall",
        seed=seed,
    )


def _phase_trial(payload) -> tuple:
    (n_sensors, n_snapshots, f1, delta, delta_idx, trial, seed,
     total_outliers, solver_kwargs, grid) = payload
    try:
        instance = synth_instance(
            _trial_config(n_sensors, n_snapshots, f1, delta, total_outliers, seed))
        report, _solution = demix(instance.measurement, default_lambda(n_sensors),
                                  SolverOptions(**solver_kwargs), grid)
        ok = success(report.estimated_frequencies, instance.frequencies)
    except SineSpikesError as exc:  # counted as failure, never aborts the sweep
        print(f"trial failed (L={n_snapshots}, delta={delta}, seed={seed}): {exc}",
              file=sys.stderr)
        ok = False
    return (n_snapshots, delta_idx, delta, trial, seed, bool(ok))


def cmd_phase_transition(args, config: dict) -> int:
    section = config.get("phase_transition", {})
    synth_section = config.get("synthesis", {})
    # trials draw their own instances and use lambda = 1/sqrt(N), as in the paper
    dropped = [f"synthesis.{key}" for key in sorted(synth_section) if key != "n_sensors"]
    dropped += ["lambda"] if "lambda" in config else []
    if dropped:
        raise ValueError(f"phase-transition does not read {', '.join(dropped)}")
    n_sensors = int(synth_section.get("n_sensors", 50))
    f1 = float(section.get("f1", 0.2))
    start = float(section.get("delta_start", 0.1))
    step = float(section.get("delta_step", 0.1))
    stop = float(section.get("delta_stop", 1.5))
    if not start < stop:
        raise ValueError("sweep start must be below stop")
    if not (start > 0 and step > 0):
        raise ValueError("sweep start and step must be positive")
    snapshot_counts = [int(x) for x in section.get("snapshot_counts", [1, 3, 5])]
    if not snapshot_counts or len(set(snapshot_counts)) != len(snapshot_counts):
        raise ValueError(f"snapshot_counts must be nonempty and distinct, got {snapshot_counts}")
    trials = int(args.trials if args.trials is not None else section.get("trials", 20))
    if trials < 1:
        raise ValueError("need at least one trial per cell")
    threads = int(args.threads if args.threads is not None else config.get("threads", 1))
    if threads < 1:
        raise ValueError("need at least one thread")
    total_outliers = int(section.get("total_outliers", 10))
    base_seed = int(args.seed if args.seed is not None else config.get("seed", 0))
    solver_kwargs = config.get("solver", {})
    # what every trial would reject is rejected once, before the first trial
    SolverOptions(**solver_kwargs)
    trigpoly.grid_points(n_sensors, args.grid)
    for L in snapshot_counts:
        _trial_config(n_sensors, L, f1, 0.0, total_outliers, base_seed)

    # the 1e-9 keeps the last cell when (stop - start) / step lands just below a whole number
    n_steps = math.floor((stop - start) / step + 1e-9) + 1
    deltas = [(start + i * step) / n_sensors for i in range(n_steps)]

    # costliest first, so the pool's last trials are short: small separations
    # run longest (unresolved ones to the cap) and more snapshots cost more per
    # iteration; the outputs are sorted below and do not depend on this order
    payloads = [
        (n_sensors, L, f1, deltas[di], di, t,
         trial_seed(base_seed, L, di, t), total_outliers, solver_kwargs, args.grid)
        for di in range(n_steps) for L in sorted(snapshot_counts, reverse=True)
        for t in range(trials)
    ]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_phase_trial, payloads, chunksize=1))
    else:
        results = [_phase_trial(p) for p in payloads]
    results.sort(key=lambda r: (r[0], r[1], r[3]))

    out = _out_dir(args)
    _write_csv(out / "trials.csv", ["seed", "delta", "L", "success"],
               ((r[4], r[2], r[0], int(r[5])) for r in results))
    agg = {}
    for L, di, delta, _t, _s, ok in results:
        agg.setdefault((L, di, delta), []).append(ok)
    rows = [
        (L, delta * n_sensors, float(np.mean(flags)))
        for (L, di, delta), flags in sorted(agg.items())
    ]
    _write_csv(out / "phase_transition.csv", ["L", "delta_times_N", "success_rate"], rows)
    for L, dN, rate in rows:
        print(f"L={L} delta*N={dN:.2f} success_rate={rate:.2f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# certificate
# ---------------------------------------------------------------------------


def cmd_certificate(args, config: dict) -> int:
    section = config.get("certificate", {})
    n_sensors = int(section.get("n_sensors", 201))
    if n_sensors % 2 != 1 or n_sensors < 9:  # N = 2m + 1 with m >= 4
        raise ValueError(f"the construction needs an odd sensor count >= 9, got {n_sensors}")
    n_freqs = int(section.get("n_frequencies", 2))
    separation = section.get("separation")
    separation = 4.0 / (n_sensors - 1) if separation is None else float(separation)
    n_outliers = int(section.get("n_outliers", 5))
    n_snapshots = int(section.get("n_snapshots", 3))
    n_seeds = int(section.get("seeds", 1))
    if n_seeds < 1:
        raise ValueError("need at least one seed")
    base_seed = int(args.seed if args.seed is not None else config.get("seed", 0))
    grid = args.grid if args.grid is not None else section.get("grid_size")
    opts = cert_mod.ValidationOptions() if grid is None else cert_mod.ValidationOptions(int(grid))
    lam = _resolve_lambda(args.lam or config.get("lambda"), n_sensors)

    reports = []
    for k in range(n_seeds):
        seed = base_seed + k
        cert, report = cert_mod.run_certificate(
            n_sensors, n_freqs, separation, n_outliers,
            n_snapshots=n_snapshots, seed=seed, lam=lam, opts=opts,
        )
        out = _out_dir(args)  # once a certificate is computed: a rejected config leaves none
        reports.append(report)
        suffix = f"_{seed}" if n_seeds > 1 else ""
        (out / f"certificate_report{suffix}.json").write_text(
            json.dumps(report.to_json(), indent=1)
        )
        if cert is not None:
            _write_csv(out / f"certificate_trace{suffix}.csv", ["f", "q_norm"],
                       _trace_rows(cert.gamma, opts.grid_size))
        print(f"seed={seed} pass={report.passed} "
              f"residual={report.interpolation_residual:.2e} "
              f"offgrid={report.offgrid_max:.4f} "
              f"curvature={report.near_curvature_max:.3e} "
              f"row_margin={report.outlier_row_margin:.4f}")
    if n_seeds > 1:
        summary = {
            "seeds": n_seeds,
            "pass_rate": float(np.mean([r.passed for r in reports])),
        }
        (out / "certificate_summary.json").write_text(json.dumps(summary, indent=1))
        print(f"pass rate: {summary['pass_rate']:.2f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_CONFIG; argparse's own 2 means no convergence here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


_FLAGS = {
    "--trials": dict(type=int),
    "--threads": dict(type=int),
    "--grid": dict(type=int),
    "--lambda": dict(dest="lam", help='regularization weight, a float or "auto" (= 1/sqrt(N))'),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sinespikes",
        description="Demix spectral lines from row-sparse outliers via the dual SDP.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, flags in (
        ("synth", cmd_synth, ()),
        ("demix", cmd_demix, ("--grid", "--lambda")),
        ("phase-transition", cmd_phase_transition, ("--trials", "--threads", "--grid")),
        ("certificate", cmd_certificate, ("--grid", "--lambda")),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a JSON config file")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output directory")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(handler=fn)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as exc:
        print(f"config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        _check_keys(config)
        return args.handler(args, config)
    except (SineSpikesError, ValueError, KeyError, TypeError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
