import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BETTER = {"p50_adj_s": "lower", "throughput_adj_per_s": "higher", "success_rate": "higher"}


def result_line(p50, throughput, success=1.0, attempted=10, failed=0):
    """The last line run.py prints, with made-up values."""
    return json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {
            "p50_adj_s": {"value": p50, "unit": "s"},
            "throughput_adj_per_s": {"value": throughput, "unit": "1/s"},
            "success_rate": {"value": success, "unit": "ratio"},
        },
    })


def test_parse_result_reads_the_last_line():
    stdout = "workload certificate-n401 seed 1\np50_adj_s = 0.0040 s\n" + result_line(0.004, 250.0)
    result = bench_pairs.parse_result(stdout)
    assert result["metrics"]["p50_adj_s"]["value"] == 0.004
    with pytest.raises(ValueError):
        bench_pairs.parse_result("\n")


def test_quartiles():
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
    # statistics.quantiles(n=4), exclusive method: positions (n+1)/4 and 3(n+1)/4
    assert bench_pairs.quartiles([1, 2, 3, 4, 5, 6, 7]) == (2.0, 4.0, 6.0)
    assert bench_pairs.quartiles([4, 1, 3, 2]) == (1.25, 2.5, 3.75)
    summary = bench_pairs.side_summary([1, 2, 3, 4, 5, 6, 7])
    assert summary == {"median": 4.0, "q1": 2.0, "q3": 6.0, "iqr": 4.0}


def test_summarize_counts_strict_wins_in_each_direction():
    lines = [
        # (base, change): p50 lower is better, throughput higher is better
        (result_line(0.016, 62.0), result_line(0.004, 250.0)),
        (result_line(0.015, 64.0), result_line(0.016, 60.0)),
        (result_line(0.017, 61.0), result_line(0.017, 61.0)),  # a tie is no win
        (result_line(0.016, 63.0), result_line(0.005, 200.0, 0.5)),
    ]
    pairs = [tuple(bench_pairs.parse_result(line) for line in pair) for pair in lines]
    summary = bench_pairs.summarize(pairs, BETTER)
    assert [summary[name]["wins"] for name in BETTER] == [2, 2, 0]
    assert all(summary[name]["pairs"] == 4 for name in BETTER)
    p50 = summary["p50_adj_s"]
    assert p50["better"] == "lower"
    assert p50["base"]["median"] == pytest.approx(0.016)
    assert p50["change"]["median"] == pytest.approx(0.0105)
    # base p50s sorted: 0.015, 0.016, 0.016, 0.017
    assert p50["base"]["iqr"] == pytest.approx(0.01675 - 0.01525)
    assert summary["success_rate"]["change"]["median"] == 1.0


def test_seed_list():
    assert bench_pairs.seed_list("231-234") == [231, 232, 233, 234]
    assert bench_pairs.seed_list("3,5,8") == [3, 5, 8]


def test_failure_summary_pools_the_ops_of_every_run():
    results = [bench_pairs.parse_result(line) for line in (
        result_line(0.004, 250.0), result_line(0.004, 250.0, attempted=30, failed=1),
        result_line(0.004, 250.0, attempted=40, failed=2))]
    assert bench_pairs.failure_summary(results) == {
        "failed": 3, "attempted": 80, "share": 3 / 80, "incorrect_runs": 2, "runs": 3}
    assert bench_pairs.failure_summary([]) == {
        "failed": 0, "attempted": 0, "share": 0.0, "incorrect_runs": 0, "runs": 0}
