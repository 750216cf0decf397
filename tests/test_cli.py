import json

import numpy as np
import pytest

from sinespikes import MixtureInstance
from sinespikes import cli
from sinespikes.cli import main, trial_seed


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


FIG1_SYNTH = {
    "n_sensors": 50,
    "n_snapshots": 5,
    "frequencies": [0.1, 0.4, 0.8],
    "total_outliers": 15,
    "outlier_mode": "distinct-sensors-overall",
    "seed": 7,
}

SMALL_SYNTH = {
    "n_sensors": 32,
    "n_snapshots": 2,
    "frequencies": [0.15, 0.62],
    "total_outliers": 4,
    "outlier_mode": "distinct-sensors-overall",
    "seed": 5,
}


def test_synth_writes_instance(tmp_path):
    cfg = write_config(tmp_path / "c.json", {"synthesis": FIG1_SYNTH})
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    inst = MixtureInstance.load(tmp_path / "o" / "instance.json")
    assert inst.n_sensors == 50
    assert inst.outlier_rows.size == 15


def test_demix_small_instance(tmp_path):
    cfg = write_config(tmp_path / "c.json", {"synthesis": SMALL_SYNTH})
    out = tmp_path / "o"
    assert main(["demix", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["estimated_frequencies"]) == 2
    assert np.abs(np.array(report["estimated_frequencies"])
                  - np.array(SMALL_SYNTH["frequencies"])).max() <= 1e-4
    assert len(report["estimated_outlier_rows"]) == 4
    for name in ("dual_poly_trace.csv", "row_norms.csv", "solver_diagnostics.csv"):
        assert (out / name).exists()
    header = (out / "dual_poly_trace.csv").read_text().splitlines()[0]
    assert header == "f,q_norm"
    header = (out / "row_norms.csv").read_text().splitlines()[0]
    assert header == "row,gamma_row_norm,lambda"


def test_demix_outputs_reproducible(tmp_path):
    cfg = write_config(tmp_path / "c.json", {"synthesis": SMALL_SYNTH})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["demix", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["demix", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("report.json", "dual_poly_trace.csv", "row_norms.csv",
                 "solver_diagnostics.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# 25 stops on a sampled iteration, the default runs to convergence at 588
@pytest.mark.parametrize("solver", [{"max_iterations": 25}, {}])
def test_demix_diagnostics_csv_is_numeric(tmp_path, solver):
    cfg = write_config(tmp_path / "c.json", {"synthesis": SMALL_SYNTH, "solver": solver})
    out = tmp_path / "o"
    assert main(["demix", "--config", cfg, "--out", str(out)]) in (0, 2)
    assert b"\r" not in (out / "solver_diagnostics.csv").read_bytes()
    lines = (out / "solver_diagnostics.csv").read_text().splitlines()
    assert lines[0] == "iteration,objective,primal_residual,dual_residual"
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    iterations = [row[0] for row in rows]
    assert iterations[0] == 1
    assert all(a < b for a, b in zip(iterations, iterations[1:]))
    assert iterations[-1] == solver.get("max_iterations", 588)


def test_demix_matches_pinned_report(tmp_path):
    # pinned from the code that still had settable ADMM and peak-picking
    # tolerances, with the outliers given as s_per_snapshot=2
    cfg = write_config(tmp_path / "c.json", {"synthesis": SMALL_SYNTH})
    out = tmp_path / "o"
    assert main(["demix", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    np.testing.assert_allclose(report["estimated_frequencies"],
                               [0.14999962178732665, 0.6199996617969846], rtol=0, atol=1e-12)
    assert report["estimated_outlier_rows"] == [21, 24, 25, 30]
    assert report["iterations"] == 588


def test_demix_zero_instance(tmp_path):
    inst = MixtureInstance.from_components([0.3], np.zeros((1, 2)), np.zeros((16, 2)))
    inst.save(tmp_path / "zero.json")
    cfg = write_config(tmp_path / "c.json", {"instance": str(tmp_path / "zero.json")})
    out = tmp_path / "o"
    assert main(["demix", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["estimated_frequencies"] == []
    assert report["estimated_outlier_rows"] == []


def test_phase_transition_tiny_sweep(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "synthesis": {"n_sensors": 32},
        "phase_transition": {
            "f1": 0.2, "delta_start": 1.4, "delta_step": 0.1, "delta_stop": 1.5,
            "snapshot_counts": [2], "trials": 2, "total_outliers": 2,
        },
    })
    out = tmp_path / "o"
    assert main(["phase-transition", "--config", cfg, "--out", str(out), "--seed", "3"]) == 0
    agg = (out / "phase_transition.csv").read_text().splitlines()
    assert agg[0] == "L,delta_times_N,success_rate"
    assert len(agg) == 3  # two sweep points
    trials = (out / "trials.csv").read_text().splitlines()
    assert trials[0] == "seed,delta,L,success"
    assert len(trials) == 5
    # aggregate equals the mean of the per-trial flags
    flags = {}
    for line in trials[1:]:
        seed, delta, l, ok = line.split(",")
        flags.setdefault(delta, []).append(int(ok))
    for line in agg[1:]:
        l, dn, rate = line.split(",")
        delta = float(dn) / 32
        key = [k for k in flags if abs(float(k) - delta) < 1e-12][0]
        assert float(rate) == pytest.approx(np.mean(flags[key]))


def test_phase_transition_reproducible(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "synthesis": {"n_sensors": 32},
        "phase_transition": {
            "f1": 0.2, "delta_start": 1.5, "delta_step": 0.5, "delta_stop": 1.6,
            "snapshot_counts": [2], "trials": 1, "total_outliers": 2,
        },
    })
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["phase-transition", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["phase-transition", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "trials.csv").read_bytes() == (out2 / "trials.csv").read_bytes()


PINNED_TRIALS = """seed,delta,L,success
3886216201191665862,0.03125,2,0
8362005876132538287,0.03125,2,0
18304334200714115485,0.09375,2,1
16741583152582010800,0.09375,2,1
"""


def test_phase_transition_matches_pinned_trials(tmp_path):
    # pinned from the code that still had settable ADMM and peak-picking tolerances
    cfg = write_config(tmp_path / "c.json", {
        "synthesis": {"n_sensors": 16},
        "phase_transition": {
            "f1": 0.2, "delta_start": 0.5, "delta_step": 1.0, "delta_stop": 1.5,
            "snapshot_counts": [2], "trials": 2, "total_outliers": 2,
        },
        "solver": {"max_iterations": 2000},
    })
    out = tmp_path / "o"
    assert main(["phase-transition", "--config", cfg, "--out", str(out), "--seed", "3"]) == 0
    assert (out / "trials.csv").read_text() == PINNED_TRIALS


def test_phase_transition_threads_do_not_change_outputs(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "synthesis": {"n_sensors": 16},
        "phase_transition": {
            "f1": 0.2, "delta_start": 0.5, "delta_step": 1.0, "delta_stop": 1.5,
            "snapshot_counts": [1, 3], "trials": 2, "total_outliers": 2,
        },
        "solver": {"max_iterations": 500},
    })
    outs = {}
    for threads in ("1", "2"):
        outs[threads] = tmp_path / threads
        assert main(["phase-transition", "--config", cfg, "--out", str(outs[threads]),
                     "--seed", "3", "--threads", threads]) == 0
    for name in ("trials.csv", "phase_transition.csv"):
        assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes()


def record_trials(monkeypatch):
    payloads = []

    def fake_trial(payload):
        payloads.append(payload)
        _n, n_snapshots, _f1, delta, delta_idx, trial, seed, *_ = payload
        return (n_snapshots, delta_idx, delta, trial, seed, True)

    monkeypatch.setattr(cli, "_phase_trial", fake_trial)
    return payloads


@pytest.mark.parametrize("start, step, stop, expected", [
    (0.1, 1.0, 0.7, [0.1]),
    (0.1, 0.1, 1.5, [0.1 + 0.1 * i for i in range(15)]),
    # the benchmark's sweep and its warm-up
    (0.1, 1.4, 1.5, [0.1, 1.5]),
    (0.1, 1.0, 0.35, [0.1]),
])
def test_phase_transition_cells_end_at_stop(tmp_path, monkeypatch, start, step, stop, expected):
    payloads = record_trials(monkeypatch)
    cfg = write_config(tmp_path / "c.json", {
        "synthesis": {"n_sensors": 20},
        "phase_transition": {"delta_start": start, "delta_step": step, "delta_stop": stop,
                             "snapshot_counts": [1], "trials": 1},
    })
    assert main(["phase-transition", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    np.testing.assert_allclose([p[3] * 20 for p in payloads], expected, atol=1e-12)


def test_phase_transition_dispatches_costliest_first(tmp_path, monkeypatch):
    payloads = record_trials(monkeypatch)
    cfg = write_config(tmp_path / "c.json", {
        "synthesis": {"n_sensors": 20},
        "phase_transition": {"delta_start": 0.5, "delta_step": 0.5, "delta_stop": 1.0,
                             "snapshot_counts": [1, 5, 3], "trials": 2},
    })
    out = tmp_path / "o"
    assert main(["phase-transition", "--config", cfg, "--out", str(out)]) == 0
    # smallest separation first, most snapshots first within it
    assert [(p[4], p[1], p[5]) for p in payloads] == [
        (di, l, t) for di in (0, 1) for l in (5, 3, 1) for t in (0, 1)]
    rows = (out / "trials.csv").read_text().splitlines()[1:]
    assert [int(row.split(",")[2]) for row in rows] == [1] * 4 + [3] * 4 + [5] * 4


@pytest.mark.parametrize("flags, section, solver", [
    (["--trials", "0"], {}, {}),
    (["--threads", "0"], {}, {}),
    (["--threads", "-3"], {}, {}),
    ([], {"trials": 0}, {}),
    ([], {"total_outliers": 40}, {}),
    ([], {"snapshot_counts": [2, 0]}, {}),
    ([], {}, {"max_iterations": 0}),
    ([], {"delta_start": 0}, {}),  # every trial would draw two equal frequencies
    ([], {"snapshot_counts": []}, {}),
    ([], {"snapshot_counts": [1, 1]}, {}),  # would run and count every L=1 trial twice
])
def test_phase_transition_rejected_before_first_trial(tmp_path, capsys, monkeypatch,
                                                      flags, section, solver):
    payloads = record_trials(monkeypatch)
    cfg = write_config(tmp_path / "c.json", {
        "synthesis": {"n_sensors": 16},
        "phase_transition": dict({"delta_start": 1.4, "delta_stop": 1.5,
                                  "snapshot_counts": [2], "trials": 2,
                                  "total_outliers": 2}, **section),
        "solver": solver,
    })
    out = tmp_path / "o"
    assert main(["phase-transition", "--config", cfg, "--out", str(out)] + flags) == 4
    assert "invalid configuration" in capsys.readouterr().err
    assert payloads == []
    assert not out.exists()


@pytest.mark.parametrize("command, config", [
    ("demix", {"synthesis": SMALL_SYNTH, "locate": {"grid_size": 256}}),
    ("demix", {"synthesis": dict(SMALL_SYNTH, s_per_snapshot=2)}),
    ("demix", {"synthesis": SMALL_SYNTH, "solver": {"eps_abs": 1e-6}}),
    ("certificate", {"certificate": {"n_sensors": 61, "near_radius_scaled": False}}),
    ("phase-transition", {"phase_transition": {"trails": 3}}),
    ("phase-transition", {"synthesis": {"n_sensors": 16, "sedes": 3}}),
    ("synth", {"synthesis": SMALL_SYNTH, "sedes": 3}),
    ("synth", {"synthesis": SMALL_SYNTH, "certificate": 3}),
    # modelling options that are constants now
    ("synth", {"synthesis": dict(SMALL_SYNTH, amplitude_model="complex-gaussian")}),
    ("synth", {"synthesis": dict(SMALL_SYNTH, outlier_magnitude=1.0)}),
    ("synth", {"synthesis": dict(SMALL_SYNTH, outlier_value_model="unit-modulus")}),
    ("demix", {"synthesis": dict(SMALL_SYNTH, amplitude_model="complex-gaussian")}),
    ("demix", {"synthesis": dict(SMALL_SYNTH, outlier_magnitude=1.0)}),
    ("demix", {"synthesis": dict(SMALL_SYNTH, outlier_value_model="unit-modulus")}),
])
def test_unknown_config_key_exit_code(tmp_path, capsys, monkeypatch, command, config):
    payloads = record_trials(monkeypatch)
    cfg = write_config(tmp_path / "c.json", config)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 4
    assert "invalid configuration" in capsys.readouterr().err
    assert payloads == []
    assert not out.exists()


# a config holding only keys the command reads; the tests below add the keys it would drop
ACCEPTED_CONFIG = {
    "synth": {"synthesis": SMALL_SYNTH},
    "demix": {"synthesis": SMALL_SYNTH},
    "phase-transition": {
        "phase_transition": {"delta_start": 1.4, "delta_stop": 1.5, "snapshot_counts": [2],
                             "trials": 1, "total_outliers": 2},
    },
    "certificate": {"certificate": {"n_sensors": 61, "n_frequencies": 1, "separation": 0.0,
                                    "n_outliers": 0, "n_snapshots": 2}},
}


@pytest.mark.parametrize("command, extra, named", [
    pytest.param("phase-transition",
                 {"synthesis": {"n_sensors": 16, "outlier_mode": "per-snapshot",
                                "n_snapshots": 9}},
                 "synthesis.n_snapshots, synthesis.outlier_mode",
                 id="phase-transition-synthesis.n_snapshots+outlier_mode"),
    pytest.param("phase-transition", {"synthesis": {"n_sensors": 16, "seed": 4}},
                 "synthesis.seed", id="phase-transition-synthesis.seed"),
    pytest.param("phase-transition", {"synthesis": {"n_sensors": 16}, "lambda": 0.05},
                 "lambda", id="phase-transition-lambda"),
    pytest.param("phase-transition", {"lambda": "auto"}, "lambda",
                 id="phase-transition-lambda-auto"),
    # its instance would come from synthesis.seed or --seed, not from this key
    pytest.param("demix", {"seed": 9}, "seed", id="demix-seed"),
    pytest.param("demix", {"threads": 2}, "threads", id="demix-threads"),
    # rejected before the instance is read, so the file need not exist
    pytest.param("demix", {"instance": "instance.json"}, "synthesis when an instance is given",
                 id="demix-instance+synthesis"),
    pytest.param("certificate", {"synthesis": SMALL_SYNTH}, "synthesis",
                 id="certificate-synthesis"),
    pytest.param("certificate", {"solver": {"max_iterations": 10}}, "solver",
                 id="certificate-solver"),
    pytest.param("synth", {"lambda": 0.1}, "lambda", id="synth-lambda"),
])
def test_command_rejects_keys_it_drops(tmp_path, capsys, monkeypatch, command, extra, named):
    payloads = record_trials(monkeypatch)
    cfg = write_config(tmp_path / "c.json", dict(ACCEPTED_CONFIG[command], **extra))
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 4
    assert f"{command} does not read {named}" in capsys.readouterr().err
    assert payloads == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["demix", "certificate"])
@pytest.mark.parametrize("lam", ["0", "-0.5", "nan", "inf"])
def test_unusable_lambda_exit_code(tmp_path, capsys, command, lam):
    cfg = write_config(tmp_path / "c.json", ACCEPTED_CONFIG[command])
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--lambda", lam]) == 4
    assert "lambda must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_trial_seed_is_stable():
    assert trial_seed(0, 5, 3, 11) == trial_seed(0, 5, 3, 11)
    seen = {trial_seed(0, L, d, t) for L in (1, 3, 5) for d in range(15) for t in range(5)}
    assert len(seen) == 3 * 15 * 5


def test_certificate_command(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "certificate": {"n_sensors": 61, "n_frequencies": 1, "separation": 0.0,
                        "n_outliers": 0, "n_snapshots": 2, "grid_size": 4096},
    })
    out = tmp_path / "o"
    assert main(["certificate", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "certificate_report.json").read_text())
    for key in ("interpolation_residual", "offgrid_max", "near_curvature_max",
                "outlier_row_margin", "condition_number_d", "pass"):
        assert key in report
    assert report["interpolation_residual"] <= 1e-8
    assert (out / "certificate_trace.csv").exists()


def test_certificate_seed_sweep(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "certificate": {"n_sensors": 61, "n_frequencies": 1, "separation": 0.0,
                        "n_outliers": 2, "n_snapshots": 2, "seeds": 3,
                        "grid_size": 4096},
    })
    out = tmp_path / "o"
    assert main(["certificate", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "certificate_summary.json").read_text())
    assert summary["seeds"] == 3
    assert 0.0 <= summary["pass_rate"] <= 1.0


def test_certificate_reads_config_lambda(tmp_path):
    section = {"n_sensors": 61, "n_frequencies": 1, "separation": 0.0, "n_outliers": 2,
               "n_snapshots": 2, "grid_size": 4096}
    from_key = write_config(tmp_path / "key.json", {"certificate": section, "lambda": 0.05})
    plain = write_config(tmp_path / "plain.json", {"certificate": section})
    runs = {
        "key": ["--config", from_key],
        "flag": ["--config", plain, "--lambda", "0.05"],
        "default": ["--config", plain],
    }
    reports = {}
    for name, argv in runs.items():
        out = tmp_path / name
        assert main(["certificate", *argv, "--out", str(out)]) == 0
        reports[name] = (out / "certificate_report.json").read_bytes()
    assert reports["key"] == reports["flag"]
    assert reports["key"] != reports["default"]


def test_demix_bad_grid_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", {"synthesis": dict(SMALL_SYNTH, n_sensors=24)})
    out = tmp_path / "o"
    assert main(["demix", "--config", cfg, "--out", str(out), "--grid", "-3"]) == 4
    assert "invalid configuration" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_certificate_bad_grid_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", {
        "certificate": {"n_sensors": 61, "n_frequencies": 1, "separation": 0.0,
                        "n_outliers": 0, "n_snapshots": 2},
    })
    out = tmp_path / "o"
    assert main(["certificate", "--config", cfg, "--out", str(out), "--grid", "-3"]) == 4
    assert "invalid configuration" in capsys.readouterr().err
    assert not (out / "certificate_trace.csv").exists()


def test_phase_transition_bad_grid_exit_code(tmp_path, capsys, monkeypatch):
    def no_trial(payload):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, "_phase_trial", no_trial)
    cfg = write_config(tmp_path / "c.json", {
        "synthesis": {"n_sensors": 24},
        "phase_transition": {"delta_start": 1.4, "delta_stop": 1.5,
                             "snapshot_counts": [2], "trials": 1, "total_outliers": 2},
    })
    out = tmp_path / "o"
    assert main(["phase-transition", "--config", cfg, "--out", str(out), "--grid", "-3"]) == 4
    assert "invalid configuration" in capsys.readouterr().err
    assert not (out / "trials.csv").exists()


@pytest.mark.parametrize("step", [0.0, -0.1])
def test_phase_transition_nonpositive_step_exit_code(tmp_path, capsys, monkeypatch, step):
    def no_trial(payload):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, "_phase_trial", no_trial)
    cfg = write_config(tmp_path / "c.json", {
        "synthesis": {"n_sensors": 24},
        "phase_transition": {"delta_start": 1.4, "delta_step": step, "delta_stop": 1.5,
                             "snapshot_counts": [2], "trials": 1, "total_outliers": 2},
    })
    out = tmp_path / "o"
    assert main(["phase-transition", "--config", cfg, "--out", str(out)]) == 4
    assert "invalid configuration" in capsys.readouterr().err
    assert not (out / "trials.csv").exists()


@pytest.mark.parametrize("section", [
    # even, or m = (N - 1) / 2 below four; N = 1 is rejected before the default
    # separation 4 / (N - 1) is computed
    pytest.param({"n_sensors": 1}, id="1"),
    pytest.param({"n_sensors": 2}, id="2"),
    pytest.param({"n_sensors": 7}, id="7"),
    pytest.param({"n_sensors": 61, "n_frequencies": 0}, id="no-frequencies"),
    pytest.param({"n_sensors": 61, "n_snapshots": 0}, id="no-snapshots"),
    pytest.param({"n_sensors": 61, "n_outliers": -1}, id="negative-outliers"),
    pytest.param({"n_sensors": 61, "n_outliers": 99}, id="more-outliers-than-sensors"),
])
def test_certificate_unusable_sensor_count_exit_code(tmp_path, capsys, section):
    cfg = write_config(tmp_path / "c.json", {"certificate": section})
    out = tmp_path / "o"
    assert main(["certificate", "--config", cfg, "--out", str(out)]) == 4
    assert "invalid configuration" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seeds", [0, -2])
def test_certificate_no_seeds_exit_code(tmp_path, capsys, seeds):
    cfg = write_config(tmp_path / "c.json", {
        "certificate": {"n_sensors": 61, "n_frequencies": 1, "separation": 0.0,
                        "n_outliers": 0, "n_snapshots": 2, "seeds": seeds},
    })
    out = tmp_path / "o"
    assert main(["certificate", "--config", cfg, "--out", str(out)]) == 4
    assert "invalid configuration" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["demix", "--bogus"],
    ["synth", "--grid", "8"],
    ["phase-transition", "--lambda", "0.3"],
    ["certificate", "--trials", "2"],
])
def test_usage_error_exit_code(tmp_path, argv):
    # a missing config makes a command that parses exit 3 without running
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", str(tmp_path / "nope.json")])
    assert exc.value.code == 4


def test_invalid_config_exit_code(tmp_path):
    cfg = write_config(tmp_path / "c.json", {"synthesis": {"n_sensors": -3,
                                                           "n_snapshots": 1,
                                                           "frequencies": [0.1]}})
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 4


@pytest.mark.parametrize("command", ["synth", "demix"])
def test_explicit_and_drawn_frequencies_exit_code(tmp_path, capsys, command):
    # 5 frequencies at separation 0.3 do not fit on the circle; none are drawn
    cfg = write_config(tmp_path / "c.json", {"synthesis": dict(
        SMALL_SYNTH, frequencies=[0.1, 0.2], n_frequencies=5, min_separation=0.3)})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 4
    assert "explicit frequencies" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_exit_code(tmp_path):
    assert main(["synth", "--config", str(tmp_path / "nope.json")]) == 3
