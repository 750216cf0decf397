"""Seeded generation of random demixing instances.

Randomness is driven by the counter-based Philox generator with explicit
stream splitting: an instance seed has four independent substreams
(frequencies, amplitudes, outlier positions, outlier values), children
0..3 of ``SeedSequence(seed).spawn(4)``, so results do not depend on call
order or threading. Amplitudes are standard complex Gaussian; outlier
values have unit modulus and uniform phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigurationError
from .model import MixtureInstance, min_separation

__all__ = [
    "FREQUENCIES",
    "POSITIONS",
    "SynthesisConfig",
    "VALUES",
    "stream",
    "synth_instance",
    "unit_phases",
]

_OUTLIER_MODES = ("per-snapshot", "distinct-sensors-overall")

_MAX_REJECTIONS = 10**6

# The substreams of an instance seed, in the order SeedSequence(seed).spawn(4)
# numbers its children; ``run_certificate`` draws from all but the amplitudes.
FREQUENCIES, _AMPLITUDES, POSITIONS, VALUES = range(4)


def stream(seed: int, index: int) -> np.random.Generator:
    """Philox generator of substream ``index`` of ``seed``.

    Child i of ``SeedSequence(seed).spawn(4)`` is the sequence with spawn key
    (i,), so each substream is built alone and unread ones cost nothing.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(index,))))


def unit_phases(rng, shape):
    return np.exp(2j * np.pi * rng.random(shape))


@dataclass(frozen=True)
class SynthesisConfig:
    """Describes one random instance.

    Frequencies are either given explicitly (``frequencies``) or drawn
    (``n_frequencies`` points, by rejection sampling when their pairwise
    wrap distance must be at least ``min_separation``); giving both is an
    error.

    ``total_outliers`` are spread over the snapshots as evenly as possible
    (randomized assignment of the remainder; no draw when the snapshot count
    divides the total). In "distinct-sensors-overall" mode every outlier
    sits on its own sensor, so the total may not exceed the sensor count;
    in "per-snapshot" mode no snapshot may receive more outliers than there
    are sensors. ``seed`` selects the instance's four substreams.
    """

    n_sensors: int
    n_snapshots: int
    frequencies: tuple[float, ...] | None = None
    n_frequencies: int | None = None
    min_separation: float | None = None
    total_outliers: int = 0
    outlier_mode: str = "per-snapshot"
    seed: int = 0

    def __post_init__(self):
        if self.n_sensors < 1 or self.n_snapshots < 1:
            raise InvalidConfigurationError(
                f"n_sensors {self.n_sensors} and n_snapshots {self.n_snapshots} must be at least 1")
        if self.frequencies is None and self.n_frequencies is None:
            raise InvalidConfigurationError(
                "give frequencies explicitly or set n_frequencies"
            )
        if self.frequencies is not None and (self.n_frequencies is not None
                                             or self.min_separation is not None):
            raise InvalidConfigurationError(
                "explicit frequencies are not drawn: drop n_frequencies and min_separation"
            )
        if self.frequencies is not None and not np.all(np.isfinite(self.frequencies)):
            raise InvalidConfigurationError(f"frequencies must be finite, got {self.frequencies}")
        if self.n_frequencies is not None and self.n_frequencies < 0:
            raise InvalidConfigurationError(
                f"n_frequencies must be nonnegative, got {self.n_frequencies}")
        if self.min_separation is not None and not 0 <= self.min_separation < math.inf:
            raise InvalidConfigurationError(
                f"min_separation must be nonnegative and finite, got {self.min_separation}")
        if self.outlier_mode not in _OUTLIER_MODES:
            raise InvalidConfigurationError(
                f"unknown outlier mode {self.outlier_mode!r}: "
                f"outlier_mode is one of {_OUTLIER_MODES}"
            )
        if self.total_outliers < 0:
            raise InvalidConfigurationError(
                f"total_outliers must be nonnegative, got {self.total_outliers}")
        if self.seed < 0:
            raise InvalidConfigurationError(f"seed must be nonnegative, got {self.seed}")
        if self.outlier_mode == "distinct-sensors-overall":
            needed = self.total_outliers  # sensors all outliers occupy
        else:  # sensors the fullest snapshot occupies
            needed = -(-self.total_outliers // self.n_snapshots)
        if needed > self.n_sensors:
            raise InvalidConfigurationError(
                f"{self.outlier_mode} mode cannot place total_outliers={self.total_outliers} "
                f"over {self.n_snapshots} snapshots on {self.n_sensors} sensors"
            )


def _spread_total_outliers(total: int, n_snapshots: int, rng) -> np.ndarray:
    """Spread ``total`` outliers over snapshots as evenly as possible.

    The snapshots receiving the remainder are chosen uniformly at random.
    """
    base, extra = divmod(total, n_snapshots)
    counts = np.full(n_snapshots, base, dtype=int)
    counts[rng.choice(n_snapshots, extra, replace=False)] += 1
    return counts


def _synth_frequencies(n_frequencies: int, delta_min: float,
                       rng: np.random.Generator) -> np.ndarray:
    """Draw frequencies uniformly from ``rng``, rejecting sets separated by < ``delta_min``.

    Fewer than two frequencies have no pair to separate (their separation is
    +inf), so the first draw of ``n_frequencies`` values is kept.
    """
    if n_frequencies * delta_min > 1.0:
        raise InvalidConfigurationError(
            f"{n_frequencies} frequencies at separation {delta_min} do not fit on the circle"
        )
    for _ in range(_MAX_REJECTIONS):
        f = rng.random(n_frequencies)
        if min_separation(f) >= delta_min:
            return np.sort(f)
    raise InvalidConfigurationError(
        f"no admissible frequency set after {_MAX_REJECTIONS} draws"
    )


def _outlier_columns(cfg: SynthesisConfig, counts: np.ndarray, rng) -> list[np.ndarray]:
    """Row indices of the outliers in each snapshot, per the support mode."""
    n, l = cfg.n_sensors, cfg.n_snapshots
    if cfg.outlier_mode == "distinct-sensors-overall":
        rows = rng.choice(n, int(counts.sum()), replace=False)
        splits = np.cumsum(counts)[:-1]
        return [np.sort(part) for part in np.split(rows, splits)]
    return [np.sort(rng.choice(n, int(counts[col]), replace=False)) for col in range(l)]


def synth_instance(cfg: SynthesisConfig) -> MixtureInstance:
    """Generate one instance; identical configs yield bit-identical output."""
    n, l = cfg.n_sensors, cfg.n_snapshots

    if cfg.frequencies is not None:
        freqs = np.asarray(cfg.frequencies, dtype=float) % 1.0
    else:
        freqs = _synth_frequencies(cfg.n_frequencies, cfg.min_separation or 0.0,
                                   stream(cfg.seed, FREQUENCIES))

    # standard complex normal: unit total variance per entry
    rng_a = stream(cfg.seed, _AMPLITUDES)
    shape = (freqs.size, l)
    amplitudes = (rng_a.standard_normal(shape) + 1j * rng_a.standard_normal(shape)) / np.sqrt(2)

    rng_pos = stream(cfg.seed, POSITIONS)
    counts = _spread_total_outliers(cfg.total_outliers, l, rng_pos)
    rng_val = stream(cfg.seed, VALUES)
    outliers = np.zeros((n, l), dtype=complex)
    for col, rows in enumerate(_outlier_columns(cfg, counts, rng_pos)):
        outliers[rows, col] = unit_phases(rng_val, rows.size)

    return MixtureInstance.from_components(freqs, amplitudes, outliers, seed=cfg.seed)
