import statistics

import numpy as np
import pytest

import stats


@pytest.mark.parametrize("q", [0, 10, 25, 50, 75, 90, 99, 100])
def test_percentile_matches_numpy(q):
    values = np.random.default_rng(3).standard_normal(37)
    assert stats.percentile(values, q) == pytest.approx(np.percentile(values, q), abs=1e-12)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


@pytest.mark.parametrize("n, expected", [
    (1, None), (11, None), (37, None), (38, 75.0), (46, 75.0), (47, 80.0), (91, 80.0),
    (92, 90.0), (181, 90.0), (182, 95.0), (901, 95.0), (902, 99.0),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


@pytest.mark.parametrize("n", [2, 11, 20, 38, 40, 57, 98, 101, 250, 1000])
def test_samples_beyond_counts_samples_above_the_percentile(n):
    values = np.random.default_rng(n).permutation(n).astype(float)
    for q in stats.TAIL_LADDER:
        assert stats.samples_beyond(n, q) == int(np.sum(values > np.percentile(values, q)))


def test_quartile_spread_uses_statistics_quantiles():
    values = [1.0, 2.0, 2.5, 3.0, 10.0, 4.0, 2.2, 2.9, 3.1, 2.7]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == (q3 - q1) / statistics.median(values)
