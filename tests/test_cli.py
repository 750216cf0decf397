import contextlib
import dataclasses
import io
import json
import math
import tempfile
import types
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinespikes import MixtureInstance
from sinespikes import cli, model, parse
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
                 "synthesis.n_snapshots, synthesis.outlier_mode are not read",
                 id="phase-transition-synthesis.n_snapshots+outlier_mode"),
    pytest.param("phase-transition", {"synthesis": {"n_sensors": 16, "seed": 4}},
                 "synthesis.seed is not read", id="phase-transition-synthesis.seed"),
    pytest.param("phase-transition", {"synthesis": {"n_sensors": 16}, "lambda": 0.05},
                 "lambda is not read", id="phase-transition-lambda"),
    pytest.param("phase-transition", {"lambda": "auto"}, "lambda is not read",
                 id="phase-transition-lambda-auto"),
    # its instance would come from synthesis.seed or --seed, not from this key
    pytest.param("demix", {"seed": 9}, "seed is not read", id="demix-seed"),
    pytest.param("demix", {"threads": 2}, "threads is not read", id="demix-threads"),
    # rejected before the instance is read, so the file need not exist
    pytest.param("demix", {"instance": "instance.json"},
                 "demix does not read synthesis when an instance is given",
                 id="demix-instance+synthesis"),
    pytest.param("certificate", {"synthesis": SMALL_SYNTH}, "synthesis is not read",
                 id="certificate-synthesis"),
    pytest.param("certificate", {"solver": {"max_iterations": 10}}, "solver is not read",
                 id="certificate-solver"),
    pytest.param("synth", {"lambda": 0.1}, "lambda is not read", id="synth-lambda"),
])
def test_command_rejects_keys_it_drops(tmp_path, capsys, monkeypatch, command, extra, named):
    payloads = record_trials(monkeypatch)
    cfg = write_config(tmp_path / "c.json", dict(ACCEPTED_CONFIG[command], **extra))
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 4
    assert f"invalid configuration: {named}\n" in capsys.readouterr().err
    assert payloads == []
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("outlier_rows", [99]), ("sede", 5)])
def test_demix_rejects_unread_instance_keys(tmp_path, capsys, key, value):
    saved = dict(FUZZ_INSTANCE, **{key: value})
    (tmp_path / "instance.json").write_text(json.dumps(saved))
    cfg = write_config(tmp_path / "c.json", {"instance": str(tmp_path / "instance.json")})
    out = tmp_path / "o"
    assert main(["demix", "--config", cfg, "--out", str(out)]) == 4
    assert f"invalid configuration: instance.{key} is not read\n" in capsys.readouterr().err
    assert not out.exists()


# a Python source file, and bytes that are not UTF-8
NOT_JSON = [Path(__file__).read_bytes(), b"\xff\xfe\x00"]


@pytest.mark.parametrize("content", NOT_JSON, ids=["python", "not-utf8"])
def test_config_that_is_not_json_exit_code(tmp_path, capsys, content):
    (tmp_path / "c.json").write_bytes(content)
    out = tmp_path / "o"
    assert main(["synth", "--config", str(tmp_path / "c.json"), "--out", str(out)]) == 4
    assert "config is not valid JSON" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("content", NOT_JSON, ids=["python", "not-utf8"])
def test_demix_names_an_instance_that_is_not_json(tmp_path, capsys, content):
    (tmp_path / "instance.json").write_bytes(content)
    cfg = write_config(tmp_path / "c.json", {"instance": str(tmp_path / "instance.json")})
    out = tmp_path / "o"
    assert main(["demix", "--config", cfg, "--out", str(out)]) == 4
    assert f"saved instance {tmp_path / 'instance.json'} is not valid JSON" in (
        capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(ACCEPTED_CONFIG))
@pytest.mark.parametrize("config", [[], [{"synthesis": SMALL_SYNTH}], 3])
def test_config_that_is_not_an_object_exit_code(tmp_path, capsys, monkeypatch, command, config):
    payloads = record_trials(monkeypatch)
    cfg = write_config(tmp_path / "c.json", config)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 4
    assert "invalid configuration: the config must be an object" in capsys.readouterr().err
    assert payloads == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["demix", "certificate"])
@pytest.mark.parametrize("lam", ["0", "-0.5", "nan", "inf", ""])
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


def test_demix_zero_sensor_instance_exit_code(tmp_path, capsys):
    # the saved file's sizes are read from the file, not from arrays
    (tmp_path / "zero.json").write_text(json.dumps({
        "n_sensors": 0, "n_snapshots": 2, "frequencies": [0.3], "amplitudes_re": [0.0, 0.0],
        "amplitudes_im": [0.0, 0.0], "outliers_re": [], "outliers_im": [], "seed": None}))
    cfg = write_config(tmp_path / "c.json", {"instance": str(tmp_path / "zero.json")})
    out = tmp_path / "o"
    assert main(["demix", "--config", cfg, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "invalid configuration" in err and "n_sensors" in err
    assert not out.exists()


SWEEP_SECTION = {"delta_start": 1.4, "delta_stop": 1.5, "snapshot_counts": [2], "trials": 1,
                 "total_outliers": 2}
CERT_SECTION = {"n_sensors": 61, "n_frequencies": 1, "n_outliers": 0, "n_snapshots": 2}


@pytest.mark.parametrize("command, config, flags, named", [
    # each of these ran, and most exited 0, before every value was read by type
    ("phase-transition", {"phase_transition": dict(SWEEP_SECTION, snapshot_counts="2")}, [],
     "phase_transition.snapshot_counts"),
    ("phase-transition", {"phase_transition": dict(SWEEP_SECTION, snapshot_counts="135")}, [],
     "phase_transition.snapshot_counts"),
    ("phase-transition", {"synthesis": {"n_sensors": 16.9}}, [], "synthesis.n_sensors"),
    ("phase-transition", {"phase_transition": dict(SWEEP_SECTION, trials=1.7)}, [],
     "phase_transition.trials"),
    ("phase-transition", {"phase_transition": dict(SWEEP_SECTION, trials=True)}, [],
     "phase_transition.trials"),
    ("phase-transition", {"phase_transition": dict(SWEEP_SECTION, f1=math.nan)}, [],
     "phase_transition.f1"),
    ("phase-transition", {"synthesis": {"n_sensors": "8"}}, [], "synthesis.n_sensors"),
    ("demix", {"synthesis": dict(SMALL_SYNTH, n_sensors="8")}, [], "synthesis.n_sensors"),
    ("certificate", {"certificate": dict(CERT_SECTION, n_sensors=61.5)}, [],
     "certificate.n_sensors"),
    ("certificate", {"certificate": dict(CERT_SECTION, grid_size=4096.9)}, [],
     "certificate.grid_size"),
    ("certificate", {"certificate": dict(CERT_SECTION, seeds=True)}, [], "certificate.seeds"),
    ("certificate", {"certificate": dict(CERT_SECTION, n_frequencies=2, separation=-0.1)}, [],
     "separation"),
    ("certificate", {"certificate": dict(CERT_SECTION, separation=-0.1)}, [], "separation"),
    # two equal lines; the run wrote NaN fields
    ("certificate", {"certificate": dict(CERT_SECTION, n_frequencies=2, separation=0)}, [],
     "separation"),
    # the default separation 4/40 wraps 30 lines onto each other
    ("certificate", {"certificate": dict(CERT_SECTION, n_sensors=41, n_frequencies=30)}, [],
     "separation"),
    ("synth", {"synthesis": dict(SMALL_SYNTH, frequencies=[0.1, math.nan])}, [],
     "synthesis.frequencies[1]"),
    ("synth", {"synthesis": SMALL_SYNTH}, ["--seed", "-1"], "seed"),
    ("certificate", {"certificate": CERT_SECTION}, ["--seed", "-1"], "seed"),
    ("phase-transition", {"threads": 0}, [], "threads"),
    ("demix", {"synthesis": SMALL_SYNTH, "lambda": "abc"}, [], "lambda"),
    ("demix", {"synthesis": SMALL_SYNTH, "lambda": True}, [], "lambda"),
])
def test_values_rejected_by_key_before_any_work(tmp_path, capsys, monkeypatch, command, config,
                                                flags, named):
    payloads = record_trials(monkeypatch)
    cfg = write_config(tmp_path / "c.json", config)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)] + flags) == 4
    err = capsys.readouterr().err
    assert "invalid configuration" in err and named in err
    assert payloads == []
    assert not out.exists()


@pytest.mark.parametrize("threads, cores, workers", [
    (4000, 8, [6]),  # one per trial
    (4000, 2, [2]),  # one per core
    (3, 8, [3]),
    (4000, None, []),  # an unknown core count runs the trials in process
    (1, 8, []),
])
def test_phase_transition_pool_is_bounded(tmp_path, monkeypatch, threads, cores, workers):
    payloads = record_trials(monkeypatch)
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
    cfg = write_config(tmp_path / "c.json", {"phase_transition": {
        "delta_start": 0.5, "delta_step": 0.5, "delta_stop": 1.0, "snapshot_counts": [1, 3, 5],
        "trials": 1}})
    argv = ["phase-transition", "--config", cfg, "--out", str(tmp_path / "o"),
            "--threads", str(threads)]
    assert main(argv) == 0
    assert len(payloads) == 6
    assert pools == workers


@pytest.mark.parametrize("error", [ValueError, KeyError, TypeError])
def test_error_inside_a_handler_propagates(tmp_path, monkeypatch, error):
    # only the package's own errors mean a bad input
    def broken(*args, **kwargs):
        raise error("a bug")

    monkeypatch.setattr(cli, "demix", broken)
    cfg = write_config(tmp_path / "c.json", {"synthesis": SMALL_SYNTH})
    with pytest.raises(error, match="a bug"):
        main(["demix", "--config", cfg, "--out", str(tmp_path / "o")])


# --- every key, drawn wrong -------------------------------------------------

FUZZ_SYNTH = {"n_sensors": 8, "n_snapshots": 2, "frequencies": [0.1, 0.4], "total_outliers": 1,
              "outlier_mode": "per-snapshot", "seed": 1}
# a config of each command that it accepts, small enough to run in milliseconds
FUZZ_BASE = {
    "synth": {"synthesis": FUZZ_SYNTH},
    "demix": {"synthesis": FUZZ_SYNTH, "solver": {"max_iterations": 20}, "lambda": 0.3},
    "phase-transition": {
        "synthesis": {"n_sensors": 16}, "solver": {"max_iterations": 20}, "seed": 3, "threads": 1,
        "phase_transition": dict(SWEEP_SECTION, f1=0.2, delta_step=0.1)},
    "certificate": {
        "certificate": dict(CERT_SECTION, n_frequencies=2, separation=0.05, n_outliers=1, seeds=1,
                            grid_size=4096),
        "lambda": 0.2, "seed": 1},
}
# a synthesis section that draws its frequencies, to read n_frequencies and min_separation
FUZZ_DRAWN_SYNTH = {"n_sensors": 8, "n_snapshots": 2, "n_frequencies": 2, "min_separation": 0.1}
FUZZ_INSTANCE = MixtureInstance.from_components([0.3], np.ones((1, 2)), np.zeros((8, 2))).to_json()

# the keys whose negative values are valid, by section (by command at the top
# level): a frequency, a sweep's base seed (masked to 64 bits), a saved
# instance's arrays and seed; every other negative number is out of range
FUZZ_NEGATIVE_OK = {("phase_transition", "f1"), ("synthesis", "frequencies"),
                    ("phase-transition", "seed"),
                    *[("instance.json", k) for k in ("frequencies", "amplitudes_re",
                                                     "amplitudes_im", "outliers_re",
                                                     "outliers_im", "seed")]}


def _annotations(cls):
    hints = typing.get_type_hints(cls)
    return {parse.json_key(f): hints[f.name] for f in dataclasses.fields(cls)}


def _sections(cls):
    """The fields of ``cls`` read as dataclasses, by key."""
    return {key: alt for key, tp in _annotations(cls).items()
            for alt in typing.get_args(tp) or (tp,) if dataclasses.is_dataclass(alt)}


def _fuzz_keys():
    """(command, section, key, annotation) for every key of each config and of a saved instance."""
    keys = []
    for command, cls in cli._CONFIGS.items():
        for section, sec in {None: cls, **_sections(cls)}.items():
            annotations = _annotations(sec)
            keys += [(command, section, key, annotations[key]) for key in sorted(annotations)]
    annotations = _annotations(model._SavedInstance)
    assert set(annotations) == set(FUZZ_INSTANCE)
    return keys + [("instance.json", None, key, tp) for key, tp in annotations.items()]


def _not_a_positive_number(text):
    try:
        return text != "auto" and not 0 < float(text) < math.inf
    except ValueError:
        return True


def _bad_values(tp, signed, key):
    """Values of the wrong JSON type, non-finite, non-integral or (if signed) negative."""
    alts = typing.get_args(tp) if isinstance(tp, types.UnionType) else (tp,)
    kinds = set(alts) - {type(None)}
    kind = kinds.pop() if len(kinds) == 1 else None  # lambda is a float or a string
    finite = st.floats(allow_nan=False, allow_infinity=False)
    nonfinite = st.sampled_from([math.nan, math.inf, -math.inf])
    wrong = [st.booleans()] + ([] if type(None) in alts else [st.none()])
    if dataclasses.is_dataclass(kind):  # a section: anything but an object
        return st.one_of(*wrong, finite, st.text(max_size=4), st.lists(st.integers(), max_size=2))
    wrong.append(st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
    if key == "lambda":  # a number, a numeric string, "auto" or null
        return st.one_of(*wrong, nonfinite, st.lists(finite, max_size=2), st.sampled_from([0, 0.0]),
                         st.floats(max_value=-1e-300), st.integers(max_value=-1),
                         st.text(max_size=6).filter(_not_a_positive_number))
    if typing.get_origin(kind) is tuple:  # a list with one bad item, or no list
        item = _bad_values(typing.get_args(kind)[0], signed, None)
        with_bad_item = st.tuples(st.lists(st.just(1), max_size=2), item).map(
            lambda t: t[0] + [t[1]])
        return st.one_of(*wrong, finite, st.text(max_size=4), with_bad_item)
    if kind is str:
        return st.one_of(*wrong, finite, st.lists(st.text(max_size=2), max_size=2))
    wrong += [nonfinite, st.text(max_size=4), st.lists(finite, max_size=2)]
    if kind is int:
        wrong.append(finite.filter(lambda x: not x.is_integer()))
    if signed:
        wrong.append(st.integers(max_value=-1) if kind is int else st.floats(max_value=-1e-300))
    return st.one_of(*wrong)


def _fuzz_config(command, section, key, value, workdir):
    """(command, config) with ``value`` at ``section.key``, on a base that reads the key."""
    if command == "instance.json":
        (workdir / "instance.json").write_text(json.dumps(dict(FUZZ_INSTANCE, **{key: value})))
        return "demix", {"instance": str(workdir / "instance.json")}
    config = json.loads(json.dumps(FUZZ_BASE[command]))
    if command == "demix" and key == "instance":
        del config["synthesis"]
    if section == "synthesis" and key in ("n_frequencies", "min_separation"):
        config["synthesis"] = dict(FUZZ_DRAWN_SYNTH)
    if section is None:
        config[key] = value
    else:
        config.setdefault(section, {})[key] = value
    return command, config


FUZZ_KEYS = _fuzz_keys()
OBJECTS = [(command, section) for command, cls in cli._CONFIGS.items()
           for section in (None, *_sections(cls))]


@pytest.mark.parametrize("command, section", OBJECTS,
                         ids=[f"{c}-{s or 'top'}" for c, s in OBJECTS])
def test_every_object_rejects_a_key_it_does_not_read(tmp_path, capsys, monkeypatch, command,
                                                      section):
    payloads = record_trials(monkeypatch)
    config = json.loads(json.dumps(FUZZ_BASE[command]))
    target = config if section is None else config.setdefault(section, {})
    target["unread"] = 1
    cfg = write_config(tmp_path / "c.json", config)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 4
    path = "unread" if section is None else f"{section}.unread"
    assert f"invalid configuration: {path} is not read\n" in capsys.readouterr().err
    assert payloads == []
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(FUZZ_BASE))
def test_fuzz_bases_are_accepted(tmp_path, monkeypatch, command):
    record_trials(monkeypatch)
    cfg = write_config(tmp_path / "c.json", FUZZ_BASE[command])
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) in (0, 2)


@pytest.mark.parametrize("command, section, key, tp", FUZZ_KEYS,
                         ids=[f"{c}-{s + '.' if s else ''}{k}" for c, s, k, _ in FUZZ_KEYS])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_every_key_rejects_wrong_values_by_name(command, section, key, tp, data):
    signed = (section or command, key) not in FUZZ_NEGATIVE_OK
    value = data.draw(_bad_values(tp, signed, key), label=key)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        workdir = Path(tmp)
        payloads = record_trials(mp)
        run, config = _fuzz_config(command, section, key, value, workdir)
        cfg = write_config(workdir / "c.json", config)
        out = workdir / "o"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([run, "--config", cfg, "--out", str(out)])
        assert code == 4, err.getvalue()
        assert "invalid configuration" in err.getvalue() and key in err.getvalue()
        assert "Traceback" not in err.getvalue()
        assert payloads == []
        assert not out.exists()
