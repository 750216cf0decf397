#!/usr/bin/env python3
"""Stress the solver's equivariance under the problem symmetries on random draws.

    python3 tools/equivariance_stress.py --draws 400 --seed 0

Each draw runs the three symmetry moves of
``test_solve_is_equivariant_under_the_problem_symmetries`` in
``tests/test_solver.py`` on a fresh problem: N from 8 to 24, L from 1 to 3,
two lines plus two outlier rows, lambda = 1/sqrt(N), every solve capped at
600 iterations. The moves are Y -> YU (U unitary), Y -> DY (D =
diag(exp(2i*pi*j*f0))) and Y -> conj(Y) with its rows reversed. Each maps
the solve of Y onto the solve of the moved problem, so the two must stop at
the same iteration, with lower and upper bounds within 1e-12 * max(1,
|bound|), gaps within 1e-10 and Gamma within 1e-10 * max(1, |Y|_F) of the
mapped Gamma, as the test asks.
The parting of a move is |Gamma_moved - mapped Gamma|_F / max(1, |Y|_F).

The script prints every failing draw with its parameters and the check it
failed, then the worst parting over all draws and moves; it exits 1 if any
draw failed, 0 otherwise. The draws depend only on ``--seed``, and the
solver of the working tree's ``src`` runs them.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
MAX_ITERATIONS = 600
PARTING_TOL = 1e-10
BOUND_TOL = 1e-12
GAP_TOL = 1e-10


def spectral_measurement(n: int, l: int, seed: int) -> np.ndarray:
    """Two lines plus two outlier rows, the shape of a sweep trial."""
    rng = np.random.default_rng(seed)
    j = np.arange(n)[:, None]
    y = np.zeros((n, l), dtype=complex)
    for f in rng.random(2):
        y += np.exp(2j * np.pi * j * f) * (rng.standard_normal(l) + 1j * rng.standard_normal(l))
    rows = rng.choice(n, 2, replace=False)
    y[rows] += rng.standard_normal((2, l)) + 1j * rng.standard_normal((2, l))
    return y / np.sqrt(n)


def draw(rng: np.random.Generator) -> dict:
    """The parameters of one draw, over the ranges of the property test."""
    return {"seed": int(rng.integers(2**32)), "n": int(rng.integers(8, 25)),
            "l": int(rng.integers(1, 4)), "mixing_seed": int(rng.integers(2**32)),
            "f0": float(rng.random())}


def check(seed: int, n: int, l: int, mixing_seed: int, f0: float) -> tuple[float, list[str]]:
    """(worst parting over the three moves, the checks that failed) for one draw."""
    from sinespikes import DualSdpProblem, SolverOptions, default_lambda, solve_dual_sdp

    y = spectral_measurement(n, l, seed)
    lam = default_lambda(n)
    rng = np.random.default_rng(mixing_seed)
    u, _ = np.linalg.qr(rng.standard_normal((l, l)) + 1j * rng.standard_normal((l, l)))
    d = np.exp(2j * np.pi * np.arange(n) * f0)[:, None]
    opts = SolverOptions(max_iterations=MAX_ITERATIONS)
    sol = solve_dual_sdp(DualSdpProblem(y, lam), opts)
    moves = {
        "unitary mixing": (y @ u, sol.gamma @ u),
        "row modulation": (d * y, d * sol.gamma),
        "conjugate row reversal": (y[::-1].conj(), sol.gamma[::-1].conj()),
    }
    worst, failed = 0.0, []
    for name, (moved_y, mapped_gamma) in moves.items():
        moved = solve_dual_sdp(DualSdpProblem(moved_y, lam), opts)
        parting = float(np.linalg.norm(moved.gamma - mapped_gamma)) / max(1.0, np.linalg.norm(y))
        worst = max(worst, parting)
        if (moved.iterations, moved.converged) != (sol.iterations, sol.converged):
            failed.append(f"{name}: stopped at {moved.iterations} ({moved.converged}), "
                          f"not {sol.iterations} ({sol.converged})")
        for bound in ("lower", "upper"):
            ours, theirs = getattr(moved, bound), getattr(sol, bound)
            if abs(ours - theirs) > BOUND_TOL * max(1.0, abs(theirs)):
                failed.append(f"{name}: {bound} {ours!r}, not {theirs!r}")
        if parting > PARTING_TOL:
            failed.append(f"{name}: parting {parting:.2e}")
        if abs(moved.gap - sol.gap) > GAP_TOL:
            failed.append(f"{name}: gap {moved.gap:.3e}, not {sol.gap:.3e}")
    return worst, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--draws", type=int, required=True, help="number of random problems")
    parser.add_argument("--seed", type=int, default=0, help="seed of the draws")
    args = parser.parse_args(argv)
    if args.draws < 1:
        parser.error("--draws must be at least 1")

    sys.path.insert(0, str(SRC))
    rng = np.random.default_rng(args.seed)
    worst, failing = 0.0, 0
    for index in range(args.draws):
        params = draw(rng)
        parting, failed = check(**params)
        worst = max(worst, parting)
        if failed:
            failing += 1
            print(f"draw {index} {params}: " + "; ".join(failed), flush=True)
    print(f"{failing} of {args.draws} draws failed; worst parting {worst:.2e}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
