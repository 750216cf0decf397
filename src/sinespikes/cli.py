"""Command-line harness: instance synthesis, demixing, sweeps, certificates.

Every command is driven by a JSON config file plus a handful of overriding
flags and is a pure function of (config, seed): identical inputs produce
identical output files. The config is read once, by ``parse.read``, into
the command's dataclass (``_CONFIGS``), whose fields are the keys the
command reads. ``read`` is the one key check: a key the command does not
read, or a value of the wrong type or out of range, exits 4 before any work
or output. Numeric CSV cells use shortest round-trip decimal representation.

Exit codes: 0 ok, 2 solver did not converge, 3 I/O failure, 4 invalid config
or command line (a ``SineSpikesError``, or a file that is not JSON). Any
other exception is a bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import certificate as cert_mod
from . import trigpoly
from .dual_analysis import demix, success
from .errors import InvalidConfigurationError, SineSpikesError
from .model import MixtureInstance, default_lambda, resolve_lambda
from .parse import read
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


@dataclass(frozen=True)
class SweepSynthesis:
    """The sweep's synthesis section: trials draw everything but the sensor count."""

    n_sensors: int = 50


@dataclass(frozen=True)
class PhaseTransitionSection:
    """Cells at delta*N = delta_start, + delta_step, ... up to delta_stop, per snapshot count."""

    f1: float = 0.2
    delta_start: float = 0.1
    delta_step: float = 0.1
    delta_stop: float = 1.5
    snapshot_counts: tuple[int, ...] = (1, 3, 5)
    trials: int = 20
    total_outliers: int = 10

    def __post_init__(self):
        start, step, stop = self.delta_start, self.delta_step, self.delta_stop
        counts = self.snapshot_counts
        if not start < stop:
            raise InvalidConfigurationError(f"delta_start {start} must be below delta_stop {stop}")
        if not (start > 0 and step > 0):
            raise InvalidConfigurationError(
                f"delta_start {start} and delta_step {step} must be positive")
        if not counts or len(set(counts)) != len(counts) or min(counts) < 1:
            raise InvalidConfigurationError(
                f"snapshot_counts must be nonempty, distinct and positive, got {list(counts)}")
        if self.trials < 1:
            raise InvalidConfigurationError(f"trials must be at least 1, got {self.trials}")


@dataclass(frozen=True)
class CertificateSection:
    """The sizes of ``run_certificate``'s draws, the seed count and the grid.

    A train of two or more lines may not wrap onto itself:
    n_frequencies * separation lies in (0, 1].
    """

    n_sensors: int = 201
    n_frequencies: int = 2
    separation: float | None = None
    n_outliers: int = 5
    n_snapshots: int = 3
    seeds: int = 1
    grid_size: int | None = None

    def __post_init__(self):
        k, separation = self.n_frequencies, self.separation
        cert_mod.check_sizes(self.n_sensors, k, self.n_outliers, self.n_snapshots)
        if self.seeds < 1:
            raise InvalidConfigurationError(f"seeds must be at least 1, got {self.seeds}")
        if separation is not None and not 0 <= separation < math.inf:
            raise InvalidConfigurationError(f"separation must be nonnegative, got {separation}")
        if separation is None:
            separation = cert_mod.default_separation(self.n_sensors)
        if k >= 2 and not 0 < k * separation <= 1:
            raise InvalidConfigurationError(
                f"n_frequencies * separation must lie in (0, 1], got {k} * {separation}")


# One dataclass per command: its fields are the config's top-level keys, and
# the fields read as dataclasses are its sections.

@dataclass(frozen=True)
class _SynthConfig:
    synthesis: SynthesisConfig


@dataclass(frozen=True)
class _DemixConfig:
    instance: str | None = None
    synthesis: SynthesisConfig | None = None
    lam: float | str | None = field(default=None, metadata={"key": "lambda"})
    solver: SolverOptions = SolverOptions()

    def __post_init__(self):
        if (self.instance is None) == (self.synthesis is None):
            raise InvalidConfigurationError(
                "demix needs an instance or a synthesis section" if self.instance is None
                else "demix does not read synthesis when an instance is given")


@dataclass(frozen=True)
class _PhaseTransitionConfig:
    # trials draw their own instances and use lambda = 1/sqrt(N), as in the
    # paper, so of the synthesis keys only n_sensors is read
    synthesis: SweepSynthesis = SweepSynthesis()
    solver: SolverOptions = SolverOptions()
    seed: int = 0
    threads: int = 1
    phase_transition: PhaseTransitionSection = PhaseTransitionSection()

    def __post_init__(self):
        if self.threads < 1:
            raise InvalidConfigurationError(f"threads must be at least 1, got {self.threads}")


@dataclass(frozen=True)
class _CertificateConfig:
    certificate: CertificateSection = CertificateSection()
    lam: float | str | None = field(default=None, metadata={"key": "lambda"})
    seed: int = 0


_CONFIGS = {"synth": _SynthConfig, "demix": _DemixConfig,
            "phase-transition": _PhaseTransitionConfig, "certificate": _CertificateConfig}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    return json.loads(Path(path).read_text())


def _override(value, **flags):
    """``value`` with the fields that the given flags set; an unset flag is None."""
    return replace(value, **{name: v for name, v in flags.items() if v is not None})


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def cmd_synth(args, cfg: _SynthConfig) -> int:
    instance = synth_instance(_override(cfg.synthesis, seed=args.seed))
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


def cmd_demix(args, cfg: _DemixConfig) -> int:
    cfg = _override(cfg, lam=args.lam)
    if cfg.instance is not None:
        instance = MixtureInstance.load(cfg.instance)
    else:
        instance = synth_instance(_override(cfg.synthesis, seed=args.seed))
    lam = resolve_lambda(cfg.lam, instance.n_sensors)
    trigpoly.grid_points(instance.n_sensors, args.grid)  # before the solve
    report, solution = demix(instance.measurement, lam, cfg.solver, args.grid)

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
     total_outliers, solver_opts, grid) = payload
    try:
        instance = synth_instance(
            _trial_config(n_sensors, n_snapshots, f1, delta, total_outliers, seed))
        report, _solution = demix(instance.measurement, default_lambda(n_sensors),
                                  solver_opts, grid)
        ok = success(report.estimated_frequencies, instance.frequencies)
    except SineSpikesError as exc:  # counted as failure, never aborts the sweep
        print(f"trial failed (L={n_snapshots}, delta={delta}, seed={seed}): {exc}",
              file=sys.stderr)
        ok = False
    return (n_snapshots, delta_idx, delta, trial, seed, bool(ok))


def cmd_phase_transition(args, cfg: _PhaseTransitionConfig) -> int:
    cfg = _override(cfg, seed=args.seed, threads=args.threads)
    sweep = _override(cfg.phase_transition, trials=args.trials)
    n_sensors = cfg.synthesis.n_sensors
    # what every trial would reject is rejected once, before the first trial;
    # any base seed is valid (trial seeds are masked to 64 bits), so 0 stands in
    trigpoly.grid_points(n_sensors, args.grid)
    for L in sweep.snapshot_counts:
        _trial_config(n_sensors, L, sweep.f1, 0.0, sweep.total_outliers, 0)

    # the 1e-9 keeps the last cell when (stop - start) / step lands just below a whole number
    n_steps = math.floor((sweep.delta_stop - sweep.delta_start) / sweep.delta_step + 1e-9) + 1
    deltas = [(sweep.delta_start + i * sweep.delta_step) / n_sensors for i in range(n_steps)]

    # costliest first, so the pool's last trials are short: small separations
    # run longest (unresolved ones to the cap) and more snapshots cost more per
    # iteration; the outputs are sorted below and do not depend on this order
    payloads = [
        (n_sensors, L, sweep.f1, deltas[di], di, t, trial_seed(cfg.seed, L, di, t),
         sweep.total_outliers, cfg.solver, args.grid)
        for di in range(n_steps) for L in sorted(sweep.snapshot_counts, reverse=True)
        for t in range(sweep.trials)
    ]
    # the fork start method starts every worker at the first submit, so no
    # more are asked for than there are trials or cores
    workers = min(cfg.threads, len(payloads), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
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


def cmd_certificate(args, cfg: _CertificateConfig) -> int:
    cfg = _override(cfg, seed=args.seed, lam=args.lam)
    section = _override(cfg.certificate, grid_size=args.grid)
    opts = (cert_mod.ValidationOptions() if section.grid_size is None
            else cert_mod.ValidationOptions(section.grid_size))
    lam = resolve_lambda(cfg.lam, section.n_sensors)

    reports = []
    for k in range(section.seeds):
        seed = cfg.seed + k
        cert, report = cert_mod.run_certificate(
            section.n_sensors, section.n_frequencies, section.separation, section.n_outliers,
            n_snapshots=section.n_snapshots, seed=seed, lam=lam, opts=opts,
        )
        out = _out_dir(args)  # once a certificate is computed: a rejected config leaves none
        reports.append(report)
        suffix = f"_{seed}" if section.seeds > 1 else ""
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
    if section.seeds > 1:
        summary = {
            "seeds": section.seeds,
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
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.handler(args, read(_CONFIGS[args.command], config, None))
    except SineSpikesError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
