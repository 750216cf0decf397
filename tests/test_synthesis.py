from dataclasses import replace

import numpy as np
import pytest

from sinespikes import (
    MixtureInstance,
    SynthesisConfig,
    min_separation,
    signal_matrix,
    spread_total_outliers,
    synth_frequencies,
    synth_instance,
    synthesis,
)
from sinespikes.errors import InvalidConfigurationError
from sinespikes.synthesis import OUTLIER_MODES


def fig_config(seed=0, **overrides):
    kwargs = dict(
        n_sensors=50,
        n_snapshots=5,
        frequencies=(0.1, 0.4, 0.8),
        total_outliers=15,
        outlier_mode="distinct-sensors-overall",
        seed=seed,
    )
    kwargs.update(overrides)
    return SynthesisConfig(**kwargs)


def test_single_exponential_all_ones():
    # f = 0 and unit amplitude make every sensor read exactly one
    inst = MixtureInstance.from_components([0.0], [[1.0]], np.zeros((6, 1)))
    np.testing.assert_allclose(inst.measurement, np.ones((6, 1)), atol=1e-15)


def test_distinct_sensor_support_size():
    inst = synth_instance(fig_config(seed=3))
    assert inst.outlier_rows.size == 15
    assert np.unique(inst.outlier_rows).size == 15


def test_same_seed_bit_identical():
    a = synth_instance(fig_config(seed=42))
    b = synth_instance(fig_config(seed=42))
    assert a.measurement.tobytes() == b.measurement.tobytes()
    assert a.outliers.tobytes() == b.outliers.tobytes()


def test_different_seeds_differ():
    supports = {tuple(synth_instance(fig_config(seed=s)).outlier_rows) for s in range(20)}
    assert len(supports) >= 19


def test_signal_reconstruction():
    inst = synth_instance(fig_config(seed=9))
    rebuilt = signal_matrix(inst.frequencies, inst.amplitudes, inst.n_sensors)
    np.testing.assert_allclose(rebuilt, inst.measurement - inst.outliers, atol=1e-12)


def test_column_counts_exact():
    for mode in ("per-snapshot", "distinct-sensors-overall"):
        inst = synth_instance(fig_config(seed=5, outlier_mode=mode))
        counts = (np.abs(inst.outliers) > 0).sum(axis=0)
        assert list(counts) == [3] * 5


def spawned(seed, index):
    """Child ``index`` of SeedSequence(seed).spawn(4) as a Philox generator."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed).spawn(4)[index]))


def test_amplitude_models():
    # the one model: standard complex Gaussian from the amplitude stream
    inst = synth_instance(fig_config(seed=1))
    rng = spawned(1, 1)
    expected = (rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))) / np.sqrt(2)
    np.testing.assert_array_equal(inst.amplitudes, expected)
    assert np.abs(inst.amplitudes).std() > 0.1


def test_outlier_magnitude_scale():
    # outlier values have unit modulus
    inst = synth_instance(fig_config(seed=2))
    nz = inst.outliers[np.abs(inst.outliers) > 0]
    assert nz.size == 15
    np.testing.assert_allclose(np.abs(nz), 1.0, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 2**40 + 3, 2**64 - 1])
def test_streams_are_the_spawned_children(seed):
    # the range of cli.trial_seed; each substream is built from its spawn key alone
    for index in range(4):
        np.testing.assert_array_equal(synthesis._stream(seed, index).random(8),
                                      spawned(seed, index).random(8))


@pytest.mark.parametrize("mode", OUTLIER_MODES)
def test_outlier_rows_are_the_drawn_rows(tmp_path, mode):
    # per-snapshot columns may share rows; the support is their union
    cfg = fig_config(seed=4, outlier_mode=mode, total_outliers=12)
    rng_pos = spawned(cfg.seed, 2)
    counts = spread_total_outliers(cfg.total_outliers, cfg.n_snapshots, rng_pos)
    drawn = np.unique(np.concatenate(synthesis._outlier_columns(cfg, counts, rng_pos)))
    inst = synth_instance(cfg)
    np.testing.assert_array_equal(inst.outlier_rows, drawn)
    inst.save(tmp_path / "inst.json")
    np.testing.assert_array_equal(MixtureInstance.load(tmp_path / "inst.json").outlier_rows, drawn)


def test_total_outlier_spread():
    rng = np.random.default_rng(0)
    counts = spread_total_outliers(10, 3, rng)
    assert counts.sum() == 10
    assert counts.max() - counts.min() <= 1
    inst = synth_instance(
        fig_config(seed=7, total_outliers=10, n_snapshots=3)
    )
    assert (np.abs(inst.outliers) > 0).sum() == 10
    assert inst.outlier_rows.size == 10  # distinct sensors


class TestSynthFrequencies:
    def test_pair_within_torus_bounds(self):
        f = synth_frequencies(2, 0.4, np.random.default_rng(0))
        d = min_separation(f)
        assert 0.4 <= d <= 0.5

    def test_single_frequency(self):
        f = synth_frequencies(1, 0.9, np.random.default_rng(1))
        assert f.shape == (1,) and 0.0 <= f[0] < 1.0

    def test_separation_holds_across_seeds(self):
        delta = 2.52 / 49
        for seed in range(1000):
            f = synth_frequencies(3, delta, np.random.default_rng(seed))
            assert min_separation(f) >= delta

    def test_infeasible_target_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            synth_frequencies(3, 0.5, np.random.default_rng(0))

    def test_no_frequency_draws_nothing(self):
        rng = np.random.default_rng(2)
        state = rng.bit_generator.state
        assert synth_frequencies(0, 0.5, rng).shape == (0,)
        assert rng.bit_generator.state == state


@pytest.mark.parametrize("seed", [0, 9])
def test_no_frequencies_with_or_without_separation(seed):
    cfg = SynthesisConfig(n_sensors=12, n_snapshots=3, n_frequencies=0, total_outliers=4,
                          seed=seed)
    plain = synth_instance(cfg)
    separated = synth_instance(replace(cfg, min_separation=0.1))
    for inst in (plain, separated):
        assert inst.frequencies.shape == (0,) and inst.amplitudes.shape == (0, 3)
    np.testing.assert_array_equal(separated.outliers, plain.outliers)
    np.testing.assert_array_equal(separated.measurement, plain.measurement)
    np.testing.assert_array_equal(plain.measurement, plain.outliers)


def test_distinct_mode_overflow_rejected():
    with pytest.raises(InvalidConfigurationError):
        SynthesisConfig(
            n_sensors=10,
            n_snapshots=4,
            frequencies=(0.1,),
            total_outliers=11,
            outlier_mode="distinct-sensors-overall",
        )
    # every sensor an outlier still fits
    SynthesisConfig(n_sensors=10, n_snapshots=4, frequencies=(0.1,),
                    total_outliers=10, outlier_mode="distinct-sensors-overall")


def test_per_snapshot_overflow_rejected():
    # 41 outliers over 4 snapshots put 11 in one snapshot of 10 sensors
    with pytest.raises(InvalidConfigurationError):
        SynthesisConfig(n_sensors=10, n_snapshots=4, frequencies=(0.1,),
                        total_outliers=41, outlier_mode="per-snapshot")
    inst = synth_instance(SynthesisConfig(n_sensors=10, n_snapshots=4, frequencies=(0.1,),
                                          total_outliers=40, outlier_mode="per-snapshot"))
    assert (np.abs(inst.outliers) > 0).all()


def test_negative_outlier_total_rejected():
    with pytest.raises(InvalidConfigurationError, match="total_outliers"):
        SynthesisConfig(n_sensors=10, n_snapshots=2, frequencies=(0.1,), total_outliers=-1)


@pytest.mark.parametrize("values, named", [
    (dict(frequencies=(0.1, float("nan"))), "frequencies"),
    (dict(frequencies=(float("inf"),)), "frequencies"),
    (dict(n_frequencies=-1), "n_frequencies"),
    # NaN would fail every >= test and run all the rejection draws
    (dict(n_frequencies=2, min_separation=float("nan")), "min_separation"),
    (dict(n_frequencies=2, min_separation=-0.1), "min_separation"),
    (dict(n_frequencies=2, min_separation=float("inf")), "min_separation"),
    (dict(frequencies=(0.1,), seed=-1), "seed"),
], ids=["nan-frequency", "inf-frequency", "negative-n_frequencies", "nan-separation",
        "negative-separation", "inf-separation", "negative-seed"])
def test_out_of_range_values_rejected_by_name(values, named):
    with pytest.raises(InvalidConfigurationError, match=named):
        SynthesisConfig(n_sensors=8, n_snapshots=1, **values)


def test_unknown_model_rejected():
    with pytest.raises(InvalidConfigurationError, match="unknown outlier mode"):
        SynthesisConfig(n_sensors=8, n_snapshots=1, frequencies=(0.1,),
                        outlier_mode="per-sensor")


@pytest.mark.parametrize("drawn", [dict(n_frequencies=5), dict(min_separation=0.3),
                                   dict(n_frequencies=5, min_separation=0.3)])
def test_explicit_frequencies_exclude_drawn_ones(drawn):
    with pytest.raises(InvalidConfigurationError, match="explicit frequencies"):
        SynthesisConfig(n_sensors=8, n_snapshots=1, frequencies=(0.1, 0.2), **drawn)


def test_rejection_sampled_instance():
    cfg = SynthesisConfig(
        n_sensors=40, n_snapshots=2, n_frequencies=4, min_separation=0.05,
        total_outliers=4, seed=10,
    )
    inst = synth_instance(cfg)
    assert min_separation(inst.frequencies) >= 0.05
