"""Which public functions of ``sinespikes`` the traced run wraps, and the
per-layer metrics derived from the spans they record.

Each target is looked up where its caller looks it up: ``cli`` imported
``demix`` and ``synth_instance`` by name, so those names are patched in
``cli`` as well as in their home modules.
"""

from __future__ import annotations

from sinespikes import certificate, cli, dual_analysis, solver, synthesis

import stats
from tracing import Span, ancestor, self_times

# Sweep cells at or above this delta*N lie on the resolved side of the transition.
RESOLVED_DELTA_N = 1.0


def _solve_attrs(attrs, args, kwargs, result):
    attrs["iterations"] = result.iterations
    attrs["converged"] = result.converged


def _demix_attrs(attrs, args, kwargs, result):
    report, _solution = result
    attrs["gap"] = report.duality_gap


def _cert_solve_attrs(attrs, args, kwargs, result):
    attrs["condition"] = result.condition_number


def _trial_attrs(attrs, args, kwargs, result):
    payload = args[0]
    n_sensors, n_snapshots, delta = payload[0], payload[1], payload[3]
    attrs["L"] = n_snapshots
    attrs["delta_n"] = delta * n_sensors
    attrs["payload"] = payload
    attrs["result"] = result


def targets():
    """(module, attribute, span name, annotate) for every wrapped function."""
    return [
        (synthesis, "synth_instance", "synth", None),
        (cli, "synth_instance", "synth", None),
        (cli, "_phase_trial", "cli.trial", _trial_attrs),
        (dual_analysis, "demix", "analysis.demix", _demix_attrs),
        (cli, "demix", "analysis.demix", _demix_attrs),
        (dual_analysis, "solve_dual_sdp", "solver.solve", _solve_attrs),
        (solver, "project_psd", "solver.psd", None),
        (solver, "project_row_ball", "solver.ball", None),
        (dual_analysis, "locate_frequencies", "analysis.locate", None),
        (dual_analysis, "locate_outliers", "analysis.outliers", None),
        (dual_analysis, "recover_amplitudes", "analysis.recover", None),
        (certificate, "build_kernel", "cert.kernel", None),
        (certificate, "restrict_kernel", "cert.restrict", None),
        (certificate, "build_system", "cert.system", None),
        (certificate, "solve_certificate", "cert.solve", _cert_solve_attrs),
        (certificate, "validate_certificate", "cert.validate", None),
    ]


# name -> (unit, better); the order is the order of the printed report
PER_LAYER = {
    "solver.iterations": ("count", "lower"),
    "solver.iterations.resolved": ("count", "lower"),
    "solver.iterations.unresolved": ("count", "lower"),
    "solver.ms_per_iter": ("ms", "lower"),
    "solver.psd_ms_per_iter": ("ms", "lower"),
    "solver.ball_ms_per_iter": ("ms", "lower"),
    "solver.other_ms_per_iter": ("ms", "lower"),
    "solver.converged_rate": ("ratio", "higher"),
    "solver.capped": ("count/op", "lower"),
    "analysis.locate_ms": ("ms", "lower"),
    "analysis.outliers_ms": ("ms", "lower"),
    "analysis.recover_ms": ("ms", "lower"),
    "analysis.recover_fallbacks": ("ratio", "lower"),
    "analysis.gap_max": ("ratio", "lower"),
    "cert.build_ms": ("ms", "lower"),
    "cert.solve_ms": ("ms", "lower"),
    "cert.condition_median": ("ratio", "lower"),
    "cert.validate_ms": ("ms", "lower"),
    "synth.ms": ("ms", "lower"),
    "cli.pool_efficiency": ("ratio", "higher"),
    "trace.overhead_share": ("ratio", "lower"),
}


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans: list[Span], *, pool_efficiency: float,
                  overhead_share: float) -> dict[str, float]:
    """Every ``PER_LAYER`` metric; a layer that did not run reports 0.

    Counts are per operation (``op`` spans) or per call, never totals, so
    they do not grow with the number of operations a faster program fits
    into a run.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for idx, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(idx)

    def durations(name):
        return [spans[i].duration for i in by_name.get(name, ())]

    solves = by_name.get("solver.solve", [])
    iterations = sum(spans[i].attrs["iterations"] for i in solves)
    per_iter = 1e3 / iterations if iterations else 0.0
    by_side = {"resolved": [], "unresolved": []}
    for i in solves:
        trial = ancestor(spans, i, "cli.trial")
        if trial is not None:
            side = "resolved" if trial.attrs["delta_n"] >= RESOLVED_DELTA_N else "unresolved"
            by_side[side].append(spans[i].attrs["iterations"])

    n_system = len(by_name.get("cert.system", ()))
    build = sum(durations("cert.kernel") + durations("cert.restrict") + durations("cert.system"))
    conditions = [spans[i].attrs["condition"] for i in by_name.get("cert.solve", ())]
    gaps = [spans[i].attrs["gap"] for i in by_name.get("analysis.demix", ())]
    n_ops = len(by_name.get("op", ()))
    capped = sum(not spans[i].attrs["converged"] for i in solves)
    recovers = by_name.get("analysis.recover", [])

    return {
        "solver.iterations": _mean([spans[i].attrs["iterations"] for i in solves]),
        "solver.iterations.resolved": _mean(by_side["resolved"]),
        "solver.iterations.unresolved": _mean(by_side["unresolved"]),
        "solver.ms_per_iter": sum(durations("solver.solve")) * per_iter,
        "solver.psd_ms_per_iter": sum(durations("solver.psd")) * per_iter,
        "solver.ball_ms_per_iter": sum(durations("solver.ball")) * per_iter,
        "solver.other_ms_per_iter": sum(selfs[i] for i in solves) * per_iter,
        "solver.converged_rate": _mean([float(spans[i].attrs["converged"]) for i in solves]),
        "solver.capped": capped / n_ops if n_ops else 0.0,
        "analysis.locate_ms": 1e3 * _mean(durations("analysis.locate")),
        "analysis.outliers_ms": 1e3 * _mean(durations("analysis.outliers")),
        "analysis.recover_ms": 1e3 * _mean(durations("analysis.recover")),
        "analysis.recover_fallbacks": _mean([float("raised" in spans[i].attrs)
                                             for i in recovers]),
        "analysis.gap_max": max(gaps) if gaps else 0.0,
        "cert.build_ms": 1e3 * build / n_system if n_system else 0.0,
        "cert.solve_ms": 1e3 * _mean(durations("cert.solve")),
        "cert.condition_median": stats.median(conditions) if conditions else 0.0,
        "cert.validate_ms": 1e3 * _mean(durations("cert.validate")),
        "synth.ms": 1e3 * _mean(durations("synth")),
        "cli.pool_efficiency": pool_efficiency,
        "trace.overhead_share": overhead_share,
    }
