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


# base p50s of median 1.0 and IQR 0.125; throughput is 1 / p50
BASE_P50 = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.1, 0.9, 1.05, 0.95]


def p50_pairs(values):
    """Parsed (base, change) results of the given (base p50, change p50) pairs."""
    return [tuple(bench_pairs.parse_result(result_line(p50, 1.0 / p50)) for p50 in pair)
            for pair in values]


def test_claim_is_met_on_nine_tenths_of_ten_pairs_beyond_the_base_iqr():
    values = [(1.0, 1.0)] + [(b, 0.8 * b) for b in BASE_P50[1:]]  # a tie and nine wins
    summary = bench_pairs.summarize(p50_pairs(values), BETTER)
    assert summary["p50_adj_s"]["base"]["iqr"] == pytest.approx(0.125)
    assert summary["p50_adj_s"]["wins"] == 9
    assert summary["p50_adj_s"]["claim_met"] and summary["throughput_adj_per_s"]["claim_met"]
    assert summary["success_rate"]["wins"] == 0 and not summary["success_rate"]["claim_met"]


@pytest.mark.parametrize("values", [
    [(1.0, 1.0), (1.1, 1.2)] + [(b, 0.8 * b) for b in BASE_P50[2:]],  # 8 wins of 10
    [(b, b - 0.01) for b in BASE_P50],  # 10 wins, inside the base IQR
    [(b, 0.8 * b) for b in BASE_P50[1:]],  # 9 wins of 9 pairs
])
def test_claim_is_not_met_on_fewer_wins_a_gain_inside_the_iqr_or_fewer_pairs(values):
    summary = bench_pairs.summarize(p50_pairs(values), BETTER)
    assert not any(s["claim_met"] for s in summary.values())
