"""The problem's symmetries, checked on the whole demix pipeline.

Each transform of the measurement maps the optimum of the SDP onto the
optimum of the transformed problem, and the ADMM iterates map the same way
to rounding, so the solve takes as many iterations and ``demix`` reports the
mapped lines and outlier rows:

* Y -> Y U for a unitary U leaves the MMV atomic norm and the row norms
  unchanged: same lines, same outlier rows;
* Y -> D Y with D = diag(exp(2i*pi*j*f0)) moves every line by f0;
* Y -> conj(Y) with its rows reversed keeps the lines (row j of the line
  a exp(2i*pi*j*f) becomes conj(a) exp(-2i*pi*(N-1)*f) exp(2i*pi*j*f), a
  phase times the same line) and sends outlier row j to N-1-j.
"""

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from sinespikes import SynthesisConfig, default_lambda, demix, success, synth_instance

# Each example runs two solves of up to ~0.3 s at N <= 24. Shrinking would
# rerun them at every step, so a failure is reported as first found.
EQUIVARIANCE = settings(max_examples=8, deadline=None,
                        phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))

instances = st.builds(
    lambda seed, n, l, s: synth_instance(SynthesisConfig(
        n_sensors=n, n_snapshots=l, n_frequencies=2, min_separation=2.5 / n,
        total_outliers=s, outlier_mode="distinct-sensors-overall", seed=seed)),
    seed=st.integers(0, 2**32 - 1), n=st.integers(12, 24), l=st.integers(1, 3),
    s=st.integers(0, 3),
)


def demix_both(y, moved):
    lam = default_lambda(y.shape[0])
    (report, solution), (moved_report, moved_solution) = demix(y, lam), demix(moved, lam)
    assert moved_solution.iterations == solution.iterations
    assert moved_solution.converged == solution.converged
    return report, moved_report


def assert_same_lines(found, expected):
    # the same count, paired in circular order within 1e-6
    assert success(found, expected, tol=1e-6), (found, expected)


@EQUIVARIANCE
@given(instance=instances, mixing_seed=st.integers(0, 2**32 - 1))
def test_unitary_mixing_of_snapshots_changes_nothing(instance, mixing_seed):
    y = instance.measurement
    rng = np.random.default_rng(mixing_seed)
    l = y.shape[1]
    u, _ = np.linalg.qr(rng.standard_normal((l, l)) + 1j * rng.standard_normal((l, l)))
    report, moved = demix_both(y, y @ u)
    assert_same_lines(moved.estimated_frequencies, report.estimated_frequencies)
    np.testing.assert_array_equal(moved.estimated_outlier_rows, report.estimated_outlier_rows)


@EQUIVARIANCE
@given(instance=instances, f0=st.floats(0.0, 1.0, exclude_max=True))
def test_row_modulation_shifts_every_line(instance, f0):
    y = instance.measurement
    modulation = np.exp(2j * np.pi * np.arange(y.shape[0]) * f0)
    report, moved = demix_both(y, modulation[:, None] * y)
    assert_same_lines(moved.estimated_frequencies, report.estimated_frequencies + f0)
    np.testing.assert_array_equal(moved.estimated_outlier_rows, report.estimated_outlier_rows)


@EQUIVARIANCE
@given(instance=instances)
def test_conjugate_row_reversal_keeps_lines_and_mirrors_rows(instance):
    y = instance.measurement
    n = y.shape[0]
    report, moved = demix_both(y, y[::-1].conj())
    assert_same_lines(moved.estimated_frequencies, report.estimated_frequencies)
    np.testing.assert_array_equal(moved.estimated_outlier_rows,
                                  np.sort(n - 1 - report.estimated_outlier_rows))
