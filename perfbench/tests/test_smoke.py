"""Tiny-size runs of each workload through the benchmark's own loop and trace."""

import json
from pathlib import Path

import pytest

import layers
import run
import stats
import workloads
from sinespikes.certificate import ValidationOptions
from tracing import Tracer

BENCHMARK_JSON = Path(run.ROOT) / "BENCHMARK.json"


def tiny(name, tmp_path):
    if name == "demix":
        return workloads.DemixWorkload(4, n_sensors=32, n_snapshots=2, n_frequencies=2,
                                       separation_cells=4.0, total_outliers=2, n_instances=2)
    if name == "sweep":
        return workloads.SweepWorkload(4, tmp_path, workers=2, n_sensors=24,
                                       snapshot_counts=(1, 2), delta_n=(0.1, 1.5),
                                       max_iterations=300)
    return workloads.CertificateWorkload(4, n_sensors=41, separation=4 / 40,
                                         options=ValidationOptions(grid_size=1 << 10))


@pytest.mark.parametrize("name", ["demix", "sweep", "certificate"])
def test_untraced_loop_reports_every_end_to_end_metric(name, tmp_path):
    workload = tiny(name, tmp_path)
    workload.synthesize()
    workload.warm_up()
    ops = run.closed_loop(lambda i: workload.run_op(i, traced=False), count=2)
    assert all(r.failed == 0 and not r.problems for _, r in ops), ops
    metrics, lines = run.end_to_end(ops, setup_samples=[(0.3, 1.0), (0.1, 0.5), (0.2, 2.0)],
                                    factors=[0.5] * len(ops))
    assert list(metrics) == list(run.END_TO_END)
    assert metrics["setup_s"] == 0.3  # median of 0.3, 0.05 and 0.4
    assert all(value > 0 for value in metrics.values())
    assert metrics["p50_adj_s"] == 0.5 * stats.median([dt for dt, _ in ops])
    assert any(line.startswith("p50_adj_s") and "of 2 ops" in line for line in lines)


@pytest.mark.parametrize("name", ["demix", "sweep", "certificate"])
def test_traced_run_replays_identically(name, tmp_path):
    workload = tiny(name, tmp_path)
    tracer = Tracer()
    with tracer.patched(layers.targets()):
        workload.synthesize()
    workload.warm_up()
    metrics, ops, problems, lines = run.traced_run(workload, 0.0, tracer)
    assert problems == []
    assert "determinism check: passed" in lines
    assert len(ops) == 2  # one untraced op and its traced replay
    assert list(metrics) == list(layers.PER_LAYER)
    if name == "certificate":
        assert metrics["solver.iterations"] == 0
        assert metrics["cert.validate_ms"] > 0
    else:
        assert metrics["solver.iterations"] > 0
        assert metrics["solver.psd_ms_per_iter"] > 0
        assert metrics["synth.ms"] > 0
    if name == "sweep":
        assert metrics["solver.iterations.unresolved"] > 0
        assert metrics["solver.iterations.resolved"] > 0
        assert 0 < metrics["cli.pool_efficiency"]


def test_sweep_counts_trials_reported_as_failed(tmp_path, monkeypatch):
    workload = tiny("sweep", tmp_path)
    workload.synthesize()

    def failing_synth(cfg):
        raise workloads.cli.SineSpikesError("injected")

    monkeypatch.setattr(workloads.cli, "synth_instance", failing_synth)
    result = workload.run_op(0, traced=True)
    assert result.attempted == 4
    assert result.failed == 4
    assert result.problems


def test_sweep_call_that_raises_fails_all_its_trials(tmp_path, monkeypatch):
    workload = tiny("sweep", tmp_path)
    workload.synthesize()

    def crash(argv):
        raise RuntimeError("worker died")

    monkeypatch.setattr(workloads.cli, "main", crash)
    result = workload.run_op(0, traced=False)
    assert (result.attempted, result.failed, result.succeeded) == (4, 4, 0)
    assert "worker died" in result.problems[0]


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.NAMES)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER




def test_each_op_is_adjusted_by_the_samples_around_it():
    from speed import NOMINAL_S, RUNS_PER_SAMPLE, SpeedProbe

    probe = SpeedProbe()
    probe.groups = [[NOMINAL_S], [3 * NOMINAL_S], [NOMINAL_S, 2 * NOMINAL_S]]
    probe.marks = [1, 1, 2]  # two ops between samples 0 and 1, one between 1 and 2
    assert probe.op_factors() == [0.5, 0.5, 0.5]
    probe.sample()
    assert len(probe.groups[-1]) == RUNS_PER_SAMPLE


def test_closed_loop_marks_every_op_between_two_samples():
    from speed import SpeedProbe

    probe = SpeedProbe()
    ops = run.closed_loop(lambda i: workloads.OpResult(1, 0, 1, i), count=3, probe=probe)
    assert len(ops) == len(probe.marks) == len(probe.op_factors()) == 3
    assert probe.marks[0] >= 1 and probe.marks[-1] < len(probe.groups)


def test_parallel_speed_probe_times_every_core():
    import multiprocessing
    from multiprocessing import resource_tracker

    from speed import RUNS_PER_SAMPLE, SpeedProbe

    probe = SpeedProbe(workers=2)
    try:
        probe.sample()
    finally:
        probe.close()
    (group,) = probe.groups
    assert len(group) == 2 * RUNS_PER_SAMPLE
    assert all(t > 0 for t in group)
    # every worker has been waited for, and no helper process was started
    assert multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._pid is None
