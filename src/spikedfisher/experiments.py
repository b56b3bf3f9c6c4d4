"""Monte Carlo studies over replicated Fisher spectra.

Two studies, each run from its own typed config: `run_clt_study(CltConfig)`
pairs empirical sqrt(p)-scaled outlier packets with draws from the limiting
fluctuation law, `run_detection_study(DetectionConfig)` tabulates the signal
counter along a ladder of record models.  A config checks and resolves all a
study needs when it is built, a runner only schedules replicates and reduces
them, and a result holds only what was measured.  A CLT replicate is
`sampling.sample_spectrum`; a detection replicate is its model's
`SignalModel.whitened_records`, counted by the detector's rule by inertia
(`sampling._gram_count`).  Replicates are embarrassingly parallel; each
derives its own counter-based stream from (master_seed, stream tag,
replicate index), so results are bit-identical for any thread count and any
scheduling order.  While a study runs, BLAS runs on one thread
(`sampling._one_blas_thread`): worker threads, at most one per usable
core, are the only parallelism, and the bits do not depend on the machine's
BLAS thread setting.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .detect import DetectorConfig, SignalModel
from .errors import ParameterError, finite_array, require_buffer, require_count, require_real
from .randomness import require_seed, stream_generator
from .sampling import (
    EntryDistribution,
    ModelDims,
    _gram_count,
    _one_blas_thread,
    require_distribution,
    sample_spectrum,
    spectrum_packets,
)
from .spikes import CLTConstants, SpikeSpec, clt_constants, sample_limit_batch
from .wachter import support_edges

__all__ = [
    "CltConfig",
    "DetectionConfig",
    "CltStudyResult",
    "FrequencyTable",
    "SummaryStats",
    "run_clt_study",
    "run_detection_study",
    "silverman_bandwidth",
    "kde_1d",
    "kde_2d",
    "summarize",
]

# Stream tags keep the three consumers of the master seed independent.
_SPECTRUM_STREAM = 1
_LIMIT_STREAM = 2
_DETECT_STREAM = 3

COUNT_BIN_LABELS = ("0", "1", "2", "3", "4", "5+")

# The solvers resolve an eigenvalue to about eps times the largest one; a study
# whose floor exceeds this fraction of a packet's limit SD is rejected
# (docs/decisions.md, "The rounding floor").
_ROUNDING_FLOOR_FRACTION = 0.5


def require_replicates(value, minimum: int) -> int:
    """A replicate count of at least `minimum` that passes the size rule.

    A study keeps one result per replicate, so a count beyond the rule is
    rejected before anything is allocated.
    """
    replicates = require_count(value, "replicates", minimum)
    require_buffer((replicates,), "replicates")
    return replicates


def _check_study(config) -> None:
    """The rules both study configs share: entry law, replicates, seed."""
    require_distribution(config.dist)
    replicates = require_replicates(config.replicates, config.MIN_REPLICATES)
    object.__setattr__(config, "replicates", replicates)
    object.__setattr__(config, "master_seed", require_seed(config.master_seed))


@dataclass(frozen=True, eq=False)
class CltConfig:
    """A fluctuation study at one (p, n, T), checked whole when built.

    Attributes:
        dims: a ModelDims, or anything `ModelDims.coerce` accepts.
        spec: the spikes; at least one, total rank at most p, each detached at
            the finite-sample ratios (p/T, p/n), and no packet's limit SD
            sqrt(sigma_sq / p) below the solvers' rounding floor.
        dist: entry distribution of the data matrices.
        replicates: Monte Carlo replicates, at least 2 (summaries and
            density estimates need spread).
        master_seed: root of all replicate streams (nonnegative, 64-bit).
        constants: spike i's limit law (`spikes.clt_constants`); computed, not settable.

    Raises:
        NumericalError: if a spike is so large that its constants overflow.
    """

    MIN_REPLICATES: ClassVar[int] = 2

    dims: ModelDims
    spec: SpikeSpec
    dist: EntryDistribution
    replicates: int
    master_seed: int
    constants: tuple[CLTConstants, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", ModelDims.coerce(self.dims))
        if not isinstance(self.spec, SpikeSpec) or not self.spec.spikes:
            raise ParameterError("a CLT study needs a SpikeSpec with at least one spike")
        self.spec.require_fits(self.dims.p)
        _check_study(self)
        # One row per replicate: each spike member's statistic and limit draw.
        require_buffer((self.replicates, 2 * self.spec.rank), "the replicates table")
        params = self.dims.fisher_params()
        consts = tuple(clt_constants(params, v, self.dist.fourth_moment) for v in self.spec.values)
        top = max(support_edges(params).upper, *(c.lam for c in consts))
        floor = np.finfo(float).eps * top
        spread = min(math.sqrt(c.sigma_sq / self.dims.p) for c in consts)
        if floor > _ROUNDING_FLOOR_FRACTION * spread:
            raise ParameterError(
                f"the solvers' rounding floor {floor:.3e} (eps times the top eigenvalue's limit "
                f"{top:.3e}) exceeds {_ROUNDING_FLOOR_FRACTION} of the smallest packet's limit SD "
                f"{spread:.3e}: that packet would be rounding noise"
            )
        object.__setattr__(self, "constants", consts)


@dataclass(frozen=True, eq=False)
class DetectionConfig:
    """A detection study along a ladder of record models, checked whole when built.

    Attributes:
        models: at least one SignalModel, one per rung; each rung runs at
            its model's dims.
        dist: entry distribution of signals and noise.
        replicates: Monte Carlo replicates per rung, at least 1.
        master_seed: root of all replicate streams (nonnegative, 64-bit).
        detector: threshold rule of the signal counter.
        levels: one (threshold, gate) per rung, `detector.levels` at its
            model's dims (the default rule needs p >= 3); computed, not settable.
    """

    MIN_REPLICATES: ClassVar[int] = 1

    models: tuple[SignalModel, ...]
    dist: EntryDistribution
    replicates: int
    master_seed: int
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    levels: tuple[tuple[float, float], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        models = self.models
        if not isinstance(models, (list, tuple)) or not models or not all(
            isinstance(m, SignalModel) for m in models
        ):
            raise ParameterError("models must be a nonempty sequence of SignalModels, one per rung")
        object.__setattr__(self, "models", tuple(models))
        if not isinstance(self.detector, DetectorConfig):
            raise ParameterError(f"detector must be a DetectorConfig, got {self.detector!r}")
        _check_study(self)
        object.__setattr__(self, "levels", tuple(self.detector.levels(m.dims) for m in models))


@dataclass(frozen=True, eq=False)
class CltStudyResult:
    """What a fluctuation study measured; its config holds the limit laws.

    `empirical[i]` stacks sqrt(p)(l - lam_i) over replicates (shape
    (replicates, n_i), rows in replicate order, columns descending within
    the packet) and `limit[i]` holds as many independent draws of spike i's
    limit law (`CltConfig.constants[i]`).
    """

    empirical: tuple[np.ndarray, ...]
    limit: tuple[np.ndarray, ...]


@dataclass(frozen=True, eq=False)
class FrequencyTable:
    """Relative frequencies of the estimated count, one column per rung, stored read-only."""

    row_labels: tuple[str, ...]
    column_labels: tuple[str, ...]
    frequencies: np.ndarray

    def __post_init__(self) -> None:
        freq = np.array(finite_array(self.frequencies, "frequencies"))  # a copy, frozen below
        shape = (len(self.row_labels), len(self.column_labels))
        if freq.shape != shape or np.any(freq < 0.0):
            raise ParameterError(f"frequencies must be nonnegative, of shape {shape}, got {freq.shape}")
        freq.setflags(write=False)
        object.__setattr__(self, "frequencies", freq)

    def column(self, label: str) -> np.ndarray:
        try:
            j = self.column_labels.index(label)
        except ValueError:
            raise ParameterError(f"no column {label!r}; have {self.column_labels}") from None
        return self.frequencies[:, j]


def _usable_cores() -> int:
    """Cores this process may run on (its CPU affinity where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _map_indexed(worker, count: int, threads: int) -> list:
    """Run worker(0..count-1), results in index order regardless of threads.

    At most one worker starts per core the process may run on: a larger
    `threads` is accepted and capped.
    """
    require_count(threads, "thread count", 1)
    workers = min(threads, count, _usable_cores())
    if workers <= 1:
        return [worker(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, range(count)))


def run_clt_study(config: CltConfig, threads: int = 1) -> CltStudyResult:
    """Monte Carlo fluctuation study with paired limit-law draws.

    Replicate r simulates one spectrum from the stream (master_seed,
    spectrum tag, r) and extracts sqrt(p)(l - phi(a_i)) per spike packet;
    an equally sized batch of limit-law draws comes from its own stream,
    so empirical and limit samples are independent.
    """
    dims, spec = config.dims, config.spec
    scale = math.sqrt(dims.p)

    def one(rep: int) -> tuple[np.ndarray, ...]:
        rng = stream_generator(config.master_seed, _SPECTRUM_STREAM, rep)
        packets = spectrum_packets(sample_spectrum(rng, dims, spec, config.dist), spec)
        return tuple(scale * (packet - c.lam) for packet, c in zip(packets, config.constants))

    with _one_blas_thread():
        per_replicate = _map_indexed(one, config.replicates, threads)
        limit_rng = stream_generator(config.master_seed, _LIMIT_STREAM)
        limit = tuple(sample_limit_batch(limit_rng, spec, config.constants, size=config.replicates))
    empirical = tuple(np.vstack(column) for column in zip(*per_replicate))
    return CltStudyResult(empirical=empirical, limit=limit)


def run_detection_study(config: DetectionConfig, threads: int = 1) -> FrequencyTable:
    """Frequency table of the estimated signal count along the ladder of models.

    Each replicate draws its records from its own stream
    (`SignalModel.whitened_records`), counts them at its rung's
    `config.levels` by `detect.estimate_count`'s rule without an eigenvalue
    (`sampling._gram_count`), and lands in one of the count bins 0..4 or "5+".
    """
    freq = np.zeros((len(COUNT_BIN_LABELS), len(config.models)))
    with _one_blas_thread():
        for entry, (model, (threshold, gate)) in enumerate(zip(config.models, config.levels)):
            # Runs to completion inside this iteration, so it may read the loop variables.
            def one(rep: int) -> int:
                rng = stream_generator(config.master_seed, _DETECT_STREAM, entry, rep)
                x, z = model.whitened_records(rng, config.dist)
                return _gram_count(x, z, model.dims, threshold, gate)

            for k_hat in _map_indexed(one, config.replicates, threads):
                freq[min(k_hat, len(COUNT_BIN_LABELS) - 1), entry] += 1
    freq /= config.replicates

    ladder = [m.dims for m in config.models]
    if len({d.p for d in ladder}) == len(ladder):
        labels = tuple(f"p={d.p}" for d in ladder)
    else:
        labels = tuple(f"p={d.p},n={d.n},T={d.T}" for d in ladder)
    return FrequencyTable(row_labels=COUNT_BIN_LABELS, column_labels=labels, frequencies=freq)


def _sample(values) -> tuple[np.ndarray, float, float]:
    """A 1-d array of at least 2 finite values, with its mean and unbiased variance.

    Raises:
        ParameterError: with fewer than 2 values, or if the mean or variance
            overflows (the values are too far apart); numpy's warning is not shown.
    """
    arr = finite_array(values, "sample", ndim=1)
    if arr.size < 2:
        raise ParameterError(f"need a sample of size >= 2, got {arr.size} values")
    with np.errstate(over="ignore", invalid="ignore"):
        mean, variance = float(arr.mean()), float(arr.var(ddof=1))
    if not (math.isfinite(mean) and math.isfinite(variance)):
        raise ParameterError(
            f"the sample's spread is not a finite number (mean {mean}, variance {variance}): "
            "its values are too far apart"
        )
    return arr, mean, variance


def silverman_bandwidth(samples: np.ndarray) -> float:
    """Normal-reference bandwidth 1.06 sd m^(-1/5) with the unbiased sd.

    Raises:
        ParameterError: as `summarize`, or with zero spread (the bandwidth
            would degenerate to 0).
    """
    arr, _, variance = _sample(samples)
    if variance == 0.0:
        raise ParameterError("all samples are equal; bandwidth would be zero")
    return 1.06 * math.sqrt(variance) * arr.size ** (-0.2)


def kde_1d(samples: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Gaussian kernel density estimate on a grid, Silverman bandwidth."""
    h = silverman_bandwidth(samples)
    arr = finite_array(samples, "sample", ndim=1)
    pts = finite_array(grid, "KDE grid", ndim=1)
    z = (pts[:, None] - arr[None, :]) / h
    return np.exp(-0.5 * z * z).sum(axis=1) / (arr.size * h * math.sqrt(2.0 * math.pi))


def kde_2d(
    samples: np.ndarray, grid_x: np.ndarray, grid_y: np.ndarray
) -> np.ndarray:
    """Product-kernel density estimate of paired samples on a lattice.

    Gaussian kernels with an independent Silverman bandwidth per axis.

    Args:
        samples: (m, 2) array of paired observations, m >= 2.

    Returns:
        Surface of shape (len(grid_x), len(grid_y)); entry (i, j) is the
        density at (grid_x[i], grid_y[j]).
    """
    arr = finite_array(samples, "2-d KDE sample")
    if arr.shape[1] != 2 or arr.shape[0] < 2:
        raise ParameterError(
            f"2-d KDE needs an (m, 2) sample with m >= 2, got shape {arr.shape}"
        )
    h_x = silverman_bandwidth(arr[:, 0])
    h_y = silverman_bandwidth(arr[:, 1])
    zx = (finite_array(grid_x, "KDE grid x", ndim=1)[:, None] - arr[None, :, 0]) / h_x
    zy = (finite_array(grid_y, "KDE grid y", ndim=1)[:, None] - arr[None, :, 1]) / h_y
    kern_x = np.exp(-0.5 * zx * zx)
    kern_y = np.exp(-0.5 * zy * zy)
    return kern_x @ kern_y.T / (arr.shape[0] * h_x * h_y * 2.0 * math.pi)


@dataclass(frozen=True)
class SummaryStats:
    """Location, spread, and a goodness-of-fit distance for one sample."""

    mean: float
    variance: float
    ks_distance: float


def summarize(
    values: np.ndarray,
    ref_mean: float | None = None,
    ref_var: float | None = None,
) -> SummaryStats:
    """Sample mean, unbiased variance, and KS distance to a reference normal.

    The reference defaults to the normal matched to the sample's own mean
    and variance, which makes `ks_distance` the standardized-sample KS
    statistic.

    Raises:
        ParameterError: with fewer than 2 values, non-finite values, a mean
            or variance that overflows, a non-finite reference mean, or a
            reference variance that is not finite and positive.
    """
    arr, mean, variance = _sample(values)
    ref_mean = require_real(mean if ref_mean is None else ref_mean, "reference mean")
    ref_var = require_real(variance if ref_var is None else ref_var, "reference variance")
    if ref_var <= 0.0:
        raise ParameterError(f"reference variance must be positive, got {ref_var}")
    # The KS statistic as scipy.stats.kstest computes it, to within an ulp.
    z = (np.sort(arr) - ref_mean) / math.sqrt(ref_var)
    cdf = np.fromiter((0.5 * math.erfc(-v / math.sqrt(2)) for v in z.tolist()), float, z.size)
    steps = np.arange(arr.size + 1.0) / arr.size
    ks = float(max((steps[1:] - cdf).max(), (cdf - steps[:-1]).max()))
    return SummaryStats(mean=mean, variance=variance, ks_distance=ks)
