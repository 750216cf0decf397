import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "sweep_verdicts.py"
_SPEC = importlib.util.spec_from_file_location("sweep_verdicts", _PATH)
sweep_verdicts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sweep_verdicts)


def trials_csv(rows):
    """trials.csv as the sweep writes it, from (seed, delta*N, L, success) rows,
    with (seed, delta*N, L, success, iterations, gap) rows taken as they are."""
    lines = ["seed,delta,L,success,iterations,gap"]
    for seed, dn, L, ok, *rest in rows:
        iterations, gap = rest or (100, 1e-5)
        lines.append(f"{seed},{repr(dn / 50)},{L},{ok},{iterations},{gap}")
    return "\n".join(lines) + "\n"


def test_read_trials_keys_each_trial_by_cell_and_seed():
    trials = sweep_verdicts.read_trials(trials_csv([(11, 0.3, 1, 0), (12, 1.5, 5, 1)]))
    assert trials == {(1, 0.3, 11): False, (5, 1.5, 12): True}


def test_compare_lists_changed_trials_and_flags_a_dropped_cell():
    base = sweep_verdicts.read_trials(trials_csv(
        [(1, 0.7, 1, 0), (2, 0.7, 1, 1), (3, 0.5, 3, 1), (4, 0.5, 3, 1)]))
    change = sweep_verdicts.read_trials(trials_csv(
        [(1, 0.7, 1, 1), (2, 0.7, 1, 1), (3, 0.5, 3, 0), (4, 0.5, 3, 1)]))
    changed, cells, dropped = sweep_verdicts.compare(base, change)
    assert changed == ["L=1 delta*N=0.7 seed=1: 0 -> 1", "L=3 delta*N=0.5 seed=3: 1 -> 0"]
    assert cells == ["L=1 delta*N=0.7: base 0.50, change 1.00",
                     "L=3 delta*N=0.5: base 1.00, change 0.50  dropped"]
    assert dropped


def test_compare_of_a_gain_only_drops_nothing():
    base = sweep_verdicts.read_trials(trials_csv([(1, 0.7, 1, 0), (2, 0.7, 1, 0)]))
    change = sweep_verdicts.read_trials(trials_csv([(1, 0.7, 1, 1), (2, 0.7, 1, 0)]))
    changed, cells, dropped = sweep_verdicts.compare(base, change)
    assert changed == ["L=1 delta*N=0.7 seed=1: 0 -> 1"]
    assert cells == ["L=1 delta*N=0.7: base 0.00, change 0.50"]
    assert not dropped


def test_compare_rejects_sweeps_of_different_trials():
    base = sweep_verdicts.read_trials(trials_csv([(1, 0.7, 1, 0)]))
    change = sweep_verdicts.read_trials(trials_csv([(2, 0.7, 1, 0)]))
    with pytest.raises(ValueError):
        sweep_verdicts.compare(base, change)


def test_timing_reports_both_wall_times_and_their_ratio():
    assert (sweep_verdicts.timing(50.0, 25.0)
            == "wall time: base 50.0 s, change 25.0 s (0.50x)")


def test_iteration_totals_split_resolved_from_unresolved_cells():
    # delta*N = 1.0 is resolved; a trial that raised has empty cells
    text = trials_csv([(1, 0.1, 1, 0, 3000, 2e-3), (2, 0.9, 3, 1, 250, 5e-5),
                       (3, 1.0, 5, 1, 75, 1e-9), (4, 1.5, 1, 0, "", "")])
    assert sweep_verdicts.iteration_totals(text) == (75, 3250)
    assert (sweep_verdicts.iterations_line("change", (75, 3250))
            == "ADMM iterations: change 3325 (75 resolved, 3250 unresolved)")


def test_iteration_totals_of_a_sweep_without_the_column_are_unknown():
    text = "seed,delta,L,success\n1,0.002,1,0\n"
    assert sweep_verdicts.iteration_totals(text) is None
    assert sweep_verdicts.iterations_line("base", None) == "ADMM iterations: base not recorded"
