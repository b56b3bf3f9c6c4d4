"""Finite-sample simulation of spiked Fisher spectra.

One replicate is a draw of

    S1 = X X^T / T  with  X = Sigma^{1/2} W,      S2 = Z Z^T / n,

for W of shape (p, T) and Z of shape (p, n) with iid standardized entries,
where Sigma is the identity outside the M x M spiked block; the result is
the spectrum of the pencil (S1, S2), i.e. of the Fisher matrix S2^{-1} S1.
Two paths give it, each with its own stream order:

* Rademacher entries (the data path) draw W, then Z, form both Grams and
  solve the pencil through LAPACK's generalized symmetric-definite driver
  (`_gram_pencil`, which also serves record files and detection replicates).
* Gaussian entries (the Bartlett path) use that W W^T and Z Z^T are
  Wishart: their lower-triangular Bartlett factors L1 and L2 have the same
  law, and L2 is already the Cholesky factor of the noise Gram.  The
  stream gives L1 (or W itself when T < p), then L2, each as its
  below-diagonal normals in row-major order followed by the p chi-square
  diagonal; the spectrum is that of B B^T n/T with B = L2^{-1} Sigma^{1/2} L1.
  This is exact in law for Gaussian entries only.

BLAS threading changes the rounding of both the Grams and the pencil, so
`_one_blas_thread` runs BLAS on one thread while a command or a replicate
loop is in progress; replicates parallelize through worker threads instead.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg

from .errors import NumericalError, ParameterError, require_buffer, require_count
from .randomness import ensure_generator
from .spikes import SpikeSpec
from .wachter import FisherParams

__all__ = [
    "EntryDistribution",
    "GAUSSIAN",
    "RADEMACHER",
    "ModelDims",
    "pencil_eigenvalues",
    "sample_spectrum",
    "spectrum_packets",
]

_DIST_NAMES = ("gaussian", "rademacher")


@dataclass(frozen=True)
class EntryDistribution:
    """Standardized iid entry law of the data matrices.

    Supported laws, both mean 0 and variance 1:
        gaussian: standard normal, fourth moment 3.
        rademacher: symmetric +-1, fourth moment 1.
    """

    name: str

    def __post_init__(self) -> None:
        if self.name not in _DIST_NAMES:
            raise ParameterError(
                f"unknown entry distribution {self.name!r}; choose from {_DIST_NAMES}"
            )

    @property
    def fourth_moment(self) -> float:
        return 3.0 if self.name == "gaussian" else 1.0

    def draw(self, rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
        if self.name == "gaussian":
            return rng.standard_normal(shape)
        return rng.integers(0, 2, size=shape).astype(float) * 2.0 - 1.0


GAUSSIAN = EntryDistribution("gaussian")
RADEMACHER = EntryDistribution("rademacher")


@dataclass(frozen=True)
class ModelDims:
    """Finite-sample dimensions (p, n, T) with p < n so S2 is invertible.

    The largest array a replicate draws, p x max(n, T), must pass the size
    rule `require_buffer`.
    """

    p: int
    n: int
    T: int

    def __post_init__(self) -> None:
        for label in ("p", "n", "T"):
            require_count(getattr(self, label), f"dimension {label}", 1)
        if self.p >= self.n:
            raise ParameterError(
                f"need p < n for an invertible noise covariance estimate, got p={self.p}, n={self.n}"
            )
        require_buffer((self.p, max(self.n, self.T)), "dimensions p x max(n, T)")

    @classmethod
    def coerce(cls, value) -> ModelDims:
        """ModelDims from itself, a (p, n, T) sequence, or a mapping with keys p, n, T."""
        if isinstance(value, cls):
            return value
        if isinstance(value, dict) and set(value) == {"p", "n", "T"}:
            return cls(**value)
        if isinstance(value, (list, tuple)) and len(value) == 3:
            return cls(*value)
        raise ParameterError(
            f"dimensions must be [p, n, T] or an object with exactly the keys p, n, T, got {value!r}"
        )

    @property
    def c_p(self) -> float:
        return self.p / self.T

    @property
    def y_p(self) -> float:
        return self.p / self.n

    def fisher_params(self) -> FisherParams:
        """Finite-sample stand-ins for the limiting ratios."""
        return FisherParams(c=self.c_p, y=self.y_p)


def pencil_eigenvalues(s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of the definite pencil (S1, S2).

    Raises:
        NumericalError: if S2 is not numerically positive definite, which
            makes the Fisher matrix undefined, or an entry overflowed.
    """
    try:
        vals = scipy.linalg.eigh(s1, s2, eigvals_only=True)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise NumericalError(
            "noise covariance estimate is numerically singular; the Fisher "
            f"matrix is undefined ({exc})"
        ) from exc
    except ValueError as exc:
        raise NumericalError(f"the pencil has non-finite entries ({exc})") from exc
    return vals[::-1].copy()


# (package, library glob beside the package, symbol suffix) of each bundled
# OpenBLAS: numpy's 64-bit-integer copy runs the Grams, scipy's the pencil.
_OPENBLAS_COPIES = (
    (np, "numpy.libs/libscipy_openblas64_*.so", "64_"),
    (scipy, "scipy.libs/libscipy_openblas-*.so", ""),
)


def _blas_control(package, pattern: str, suffix: str):
    """(get, set) thread-count functions of one bundled OpenBLAS, or None.

    None when the library or a symbol is missing (another BLAS build).
    `ctypes.CDLL` returns the handle the package already loaded.
    """
    site = Path(package.__file__).resolve().parent.parent
    paths = sorted(glob.glob(str(site / pattern)))
    try:
        lib = ctypes.CDLL(paths[0])
        get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
        put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
    except (IndexError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@functools.cache
def _blas_controls() -> tuple:
    """The controls of the OpenBLAS copies found, resolved on first use."""
    found = (_blas_control(*copy) for copy in _OPENBLAS_COPIES)
    return tuple(control for control in found if control is not None)


def _blas_threads() -> int | None:
    """Threads both OpenBLAS copies run on now; None unless both were found and agree."""
    controls = _blas_controls()
    counts = {get() for get, _ in controls}
    return counts.pop() if len(controls) == len(_OPENBLAS_COPIES) and len(counts) == 1 else None


@contextlib.contextmanager
def _one_blas_thread():
    """Run every OpenBLAS copy found on one thread, restoring the counts on exit.

    Enter it once, from the thread that starts the workers: a save and
    restore per replicate would race with replicates still in BLAS on
    other threads.  Nested entries save and restore 1.
    """
    controls = _blas_controls()
    saved = [get() for get, _ in controls]
    try:
        for _, put in controls:
            put(1)
        yield
    finally:
        for (_, put), count in zip(controls, saved):
            put(count)


def _gram_pencil(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Descending pencil eigenvalues of S1 = X X^T / T and S2 = Z Z^T / n."""
    return pencil_eigenvalues(x @ x.T / x.shape[1], z @ z.T / z.shape[1])


def _wishart_factor(rng: np.random.Generator, p: int, dof: int) -> np.ndarray:
    """A p x k matrix F with F F^T distributed as W W^T for a p x dof normal W.

    For dof >= p, F is the lower-triangular Bartlett factor: its
    p(p-1)/2 below-diagonal entries are standard normals drawn in
    row-major order, then its diagonal holds the square roots of p
    chi-squares with dof - i degrees of freedom (i = 0..p-1).  For
    dof < p it is the p x dof normal draw itself.
    """
    if dof < p:
        return rng.standard_normal((p, dof))
    factor = np.zeros((p, p))
    # A boolean mask fills in row-major order, the order of np.tril_indices(p, -1).
    factor[np.tri(p, k=-1, dtype=bool)] = rng.standard_normal(p * (p - 1) // 2)
    np.fill_diagonal(factor, np.sqrt(rng.chisquare(dof - np.arange(p))))
    return factor


def _spiked(x: np.ndarray, spec: SpikeSpec) -> np.ndarray:
    """Sigma^{1/2} x: the spiked block U diag(sqrt(a_i)) U^T on the first M rows."""
    m = spec.rank
    if m == 0:
        return x
    scales = np.repeat(np.sqrt(np.asarray(spec.values)), np.asarray(spec.multiplicities))
    basis = spec.basis_or_identity()
    block_root = (basis * scales) @ basis.T
    return np.concatenate([block_root @ x[:m], x[m:]], axis=0)


def _bartlett_spectrum(x: np.ndarray, l2: np.ndarray, dims: ModelDims) -> np.ndarray:
    """Descending eigenvalues of B B^T n/T with B = L2^{-1} X (lower-triangular L2)."""
    try:
        b = scipy.linalg.solve_triangular(l2, x, lower=True)
        vals = scipy.linalg.eigvalsh(b @ b.T)
    except ValueError as exc:
        raise NumericalError(f"the whitened signal has non-finite entries ({exc})") from exc
    return vals[::-1] * (dims.n / dims.T)


def sample_spectrum(
    rng,
    dims: ModelDims,
    spec: SpikeSpec,
    dist: EntryDistribution = GAUSSIAN,
) -> np.ndarray:
    """Simulate one spiked Fisher matrix; its eigenvalues, sorted descending.

    Gaussian entries take the Bartlett path: the stream gives the signal
    factor (T degrees of freedom), then the noise factor (n), as in
    `_wishart_factor`.  Rademacher entries take the data path: the stream
    gives W (p x T), then Z (p x n).  Either way Sigma^{1/2} touches only
    the first M rows of the signal matrix (`_spiked`).  When T < p, S1 has
    rank T and the last p - T eigenvalues are set to exact zeros; rounding-level
    negatives (a singular S1) become zeros too.

    Args:
        rng: Generator or seed accepted by `ensure_generator`.

    Raises:
        ParameterError: if the spike rank exceeds p.
        NumericalError: if the simulated S2 is numerically singular (never
            the case for continuous entries when n >= p), an entry is not
            finite, or one of the top min(p, T) eigenvalues is negative
            beyond rounding (p eps times the top eigenvalue).
    """
    rng = ensure_generator(rng)
    spec.require_fits(dims.p)
    if dist == GAUSSIAN:
        x = _spiked(_wishart_factor(rng, dims.p, dims.T), spec)
        vals = _bartlett_spectrum(x, _wishart_factor(rng, dims.p, dims.n), dims)
    else:
        w = dist.draw(rng, (dims.p, dims.T))
        z = dist.draw(rng, (dims.p, dims.n))
        vals = _gram_pencil(_spiked(w, spec), z)
    if not np.all(np.isfinite(vals)):
        raise NumericalError("the spectrum overflowed; a spike value is too large")
    rank = min(dims.p, dims.T)
    vals[rank:] = 0.0
    # A singular S1, which discrete entries can give, leaves negatives at rounding level.
    if vals[rank - 1] < -dims.p * np.finfo(float).eps * vals[0]:
        raise NumericalError(f"pencil solver returned a negative eigenvalue {vals[rank - 1]:.3e}")
    return np.maximum(vals, 0.0, out=vals)


def spectrum_packets(eigenvalues: np.ndarray, spec: SpikeSpec) -> tuple[np.ndarray, ...]:
    """Extract each spike's packet of sample eigenvalues, in spike order.

    Packet i holds the n_i consecutive order statistics that track spike i:
    packets of spikes above 1 count from the top of the spectrum, packets
    of spikes below 1 from the bottom.

    Raises:
        ParameterError: if the spike rank exceeds the sample dimension.
    """
    positions = spec.packet_indices(eigenvalues.size)
    return tuple(eigenvalues[idx] for idx in positions)
