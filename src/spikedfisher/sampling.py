"""Finite-sample simulation of spiked Fisher spectra.

One replicate is a draw of

    S1 = X X^T / T  with  X = Sigma^{1/2} W,      S2 = Z Z^T / n,

for W of shape (p, T) and Z of shape (p, n) with iid standardized entries,
where Sigma is the identity outside the M x M spiked block; the result is
the spectrum of the pencil (S1, S2), i.e. of the Fisher matrix S2^{-1} S1.
Two paths give it, each with its own stream order:

* The data path (`_data_spectrum`), taken by Rademacher replicates (W, then
  Z) and record files: `_grams` forms both Grams, LAPACK's dsygvd solves
  their pencil, and the eigenvalues past S1's rank become zeros.
* Gaussian entries (the Bartlett path) use that W W^T and Z Z^T are
  Wishart: their lower-triangular Bartlett factors L1 and L2 have the same
  law, and L2 is already the Cholesky factor of the noise Gram.  The
  stream gives L1 (or W itself when T < p), then L2, each as its
  below-diagonal normals in row-major order followed by the p chi-square
  diagonal; the spectrum is that of B B^T n/T with B = L2^{-1} Sigma^{1/2} L1.
  This is exact in law for Gaussian entries only.

A detection replicate needs only how many pencil eigenvalues lie above a
level, so `_gram_count` reads it from the Grams' Cholesky (dpotrf) and
LDL^T (dsytrf) factorizations by Sylvester's law of inertia.

BLAS threading changes the rounding of both the Grams and the pencil, so
`_one_blas_thread` runs BLAS on one thread while any command, study or
model whitening is in progress, from any thread; replicates parallelize
through worker threads instead.  They overlap because every LAPACK routine
is called through ctypes, which releases the GIL, by one convention
(`_lapack`, on the routine table `_LAPACK`).  dtrtrs, dsyevr and dsygvd
take the arguments scipy.linalg would pass, and so give its bits.  The
routines come from scipy's bundled OpenBLAS, so `scipy.linalg` is not
imported unless the build bundles none (`_lapack_routines`).
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import importlib.util
import threading
from dataclasses import dataclass
from pathlib import Path


def _openblas(package: str, pattern: str) -> ctypes.CDLL | None:
    """The OpenBLAS bundled beside the installed `package`, or None (another BLAS build).

    The package is located without importing it.  `ctypes.CDLL` returns the
    handle the package already loaded, if it did.
    """
    site = Path(importlib.util.find_spec(package).origin).parent.parent
    paths = sorted(glob.glob(str(site / pattern)))
    try:
        return ctypes.CDLL(paths[0])
    except (IndexError, OSError):
        return None


# scipy's copy, with C-int indices, gives the pencil's LAPACK routines.  It is
# opened before numpy is imported: a freshly loaded OpenBLAS spins its pool
# threads for about 0.13 s, which costs nothing while the import runs on one
# thread but takes a core from a study's workers if the study starts within it.
_SCIPY_OPENBLAS = _openblas("scipy", "scipy.libs/libscipy_openblas-*.so")

import numpy as np  # noqa: E402

from .errors import NumericalError, ParameterError, finite_array, require_buffer, require_count  # noqa: E402
from .randomness import ensure_generator  # noqa: E402
from .spikes import SpikeSpec  # noqa: E402
from .wachter import FisherParams  # noqa: E402

# numpy's copy, with 64-bit-integer indices, runs the Grams.
_NUMPY_OPENBLAS = _openblas("numpy", "numpy.libs/libscipy_openblas64_*.so")

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
        """ModelDims from itself or a (p, n, T) sequence."""
        if isinstance(value, cls):
            return value
        if isinstance(value, (list, tuple)) and len(value) == 3:
            return cls(*value)
        raise ParameterError(f"dimensions must be [p, n, T], got {value!r}")

    def fisher_params(self) -> FisherParams:
        """Finite-sample stand-ins (p/T, p/n) for the limiting ratios."""
        return FisherParams(c=self.p / self.T, y=self.p / self.n)


# The LAPACK routines of a replicate and their argument counts.
_LAPACK_ARITY = {"dtrtrs": 10, "dsyevr": 21, "dsygvd": 14, "dpotrf": 5, "dsytrf": 8}


def _lapack_routines(library: ctypes.CDLL | None) -> dict:
    """The routines of `_LAPACK_ARITY` from scipy's LAPACK, by name, called through ctypes.

    Every argument is a pointer.  A ctypes foreign call releases the GIL, so
    worker threads overlap inside LAPACK; scipy's f2py wrappers hold it for
    the whole call.  scipy's Linux wheels bundle OpenBLAS with C-int indices
    (`library`), whose `scipy_d*_` symbols are what the capsules of
    `scipy.linalg.cython_lapack` call.  Other builds (conda, distributions,
    macOS, Windows) bundle none, so the pointers come from those capsules,
    and only then is `scipy.linalg` imported.
    """
    try:
        addresses = [
            ctypes.cast(getattr(library, f"scipy_{name}_"), ctypes.c_void_p).value
            for name in _LAPACK_ARITY
        ]
    except AttributeError:  # no library, or one without scipy's symbols
        from scipy.linalg import cython_lapack

        name_of = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
            ("PyCapsule_GetName", ctypes.pythonapi)
        )
        pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
            ("PyCapsule_GetPointer", ctypes.pythonapi)
        )
        capsules = [cython_lapack.__pyx_capi__[name] for name in _LAPACK_ARITY]
        addresses = [pointer(capsule, name_of(capsule)) for capsule in capsules]
    return {
        name: ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * nargs)(address)
        for (name, nargs), address in zip(_LAPACK_ARITY.items(), addresses)
    }


_LAPACK = _lapack_routines(_SCIPY_OPENBLAS)


def _require_finite(label: str, *arrays: np.ndarray) -> None:
    """Reject non-finite entries before LAPACK sees them, as scipy's check_finite did."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise NumericalError(f"{label} has non-finite entries")


def _lapack(name: str, *args) -> int:
    """Call `_LAPACK[name]`, looked up at call time, with `args` and a trailing info.

    LAPACK takes every argument by reference: bytes pass as characters, ints
    as C ints, floats as doubles and arrays by their data.  A negative info
    (an argument LAPACK rejected) raises NumericalError; any other is returned.
    """
    refs = []
    for arg in args:
        if isinstance(arg, np.ndarray):
            arg = arg.ctypes.data
        elif not isinstance(arg, bytes):
            arg = ctypes.byref((ctypes.c_double if isinstance(arg, float) else ctypes.c_int)(arg))
        refs.append(arg)
    info = ctypes.c_int()
    _LAPACK[name](*refs, ctypes.byref(info))
    if info.value < 0:
        raise NumericalError(f"LAPACK {name} failed (info = {info.value})")
    return info.value


def _lapack_with_workspace(name: str, *args, dtypes: tuple = (float,)) -> int:
    """`_lapack` with the workspace the routine's size query (lwork = -1) asks for.

    The workspaces come last in the call, a (work, lwork) pair for each
    dtype in `dtypes`: dsytrf takes a float one, dsyevr a float and an int.
    """
    sizes = [np.empty(1, dtype=dtype) for dtype in dtypes]
    _lapack(name, *args, *[arg for size in sizes for arg in (size, -1)])
    works = [np.empty(max(1, int(size[0])), dtype=size.dtype) for size in sizes]
    return _lapack(name, *args, *[arg for work in works for arg in (work, work.size)])


def _require_definite_noise(order: int, factor: np.ndarray, s2: np.ndarray) -> None:
    """Raise unless the noise Gram S2 = L L^T is positive definite beyond rounding.

    `order` is the leading minor at which LAPACK's Cholesky factorization
    broke down (0 if none), and `factor` holds L on its diagonal.  A pivot
    with L_kk^2 <= (p + 1) eps S2_kk is within Cholesky's rounding error
    (Higham 2002, Thm 10.3): a copied row of Gaussian records leaves one.
    """
    if not order:
        small = np.diagonal(factor) ** 2 <= (len(s2) + 1) * np.finfo(float).eps * np.diagonal(s2)
        order = int(np.argmax(small)) + 1 if small.any() else 0
    if order:
        raise NumericalError(
            "noise covariance estimate is numerically singular; the Fisher matrix is undefined "
            f"(leading minor of order {order} is not positive definite)"
        )


def pencil_eigenvalues(s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of the definite pencil (S1, S2).

    Both inputs are copied (LAPACK's dsygvd overwrites them) and read from
    their lower triangles, as `scipy.linalg.eigh(s1, s2, eigvals_only=True)`
    reads them, with the same bits.

    Raises:
        ParameterError: unless S1 and S2 are finite real square matrices of
            one shape (`errors.finite_array`).
        NumericalError: if S2 is singular to rounding (`_require_definite_noise`),
            which makes the Fisher matrix undefined.
    """
    s1 = finite_array(s1, "pencil matrix S1", ndim=None)
    s2 = finite_array(s2, "pencil matrix S2", ndim=None)
    n = s1.shape[0] if s1.ndim == 2 else -1
    if s1.shape != (n, n) or s2.shape != (n, n):
        raise ParameterError(
            f"the pencil needs two square matrices of one shape, got {s1.shape} and {s2.shape}"
        )
    a, b = np.array(s1, order="F"), np.array(s2, order="F")
    vals = np.empty(n)
    # The workspace scipy passes: a larger lwork runs a faster path with other bits.
    lwork = 2 * n + 1
    info = _lapack(
        "dsygvd", 1, b"N", b"L", n, a, max(1, n), b, max(1, n), vals,
        np.empty(lwork), lwork, np.empty(1, dtype=np.intc), 1,
    )
    # dsygvd leaves S2's Cholesky factor L in b; info > n is a breakdown at minor info - n.
    _require_definite_noise(max(info - n, 0), b, s2)
    if info:
        raise NumericalError(f"LAPACK dsygvd did not converge (info = {info})")
    return vals[::-1].copy()


def _thread_control(library: ctypes.CDLL | None, suffix: str):
    """(get, set) thread-count functions of one bundled OpenBLAS, or None.

    None when the library or a symbol is missing (another BLAS build).
    """
    try:
        get = getattr(library, f"scipy_openblas_get_num_threads{suffix}")
        put = getattr(library, f"scipy_openblas_set_num_threads{suffix}")
    except AttributeError:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


# The thread controls of the OpenBLAS copies found: numpy's, then scipy's.
_BLAS_CONTROLS = tuple(
    control
    for control in (_thread_control(_NUMPY_OPENBLAS, "64_"), _thread_control(_SCIPY_OPENBLAS, ""))
    if control is not None
)


def _blas_threads() -> int | None:
    """Threads both OpenBLAS copies run on now; None unless both were found and agree."""
    counts = {get() for get, _ in _BLAS_CONTROLS}
    return counts.pop() if len(_BLAS_CONTROLS) == 2 and len(counts) == 1 else None


# The thread counts are process-wide, so the pin's state is too: how many entries
# are open, and the counts the first one saved.
_PIN_LOCK = threading.Lock()
_pin_depth = 0
_pin_saved: list[int] = []


@contextlib.contextmanager
def _one_blas_thread():
    """Run every OpenBLAS copy found on one thread while any entry is open.

    Entries nest and overlap from any thread: the first to enter saves the
    counts and pins them, and the last to exit restores them.
    """
    global _pin_depth, _pin_saved
    with _PIN_LOCK:
        if _pin_depth == 0:
            _pin_saved = [get() for get, _ in _BLAS_CONTROLS]
            for _, put in _BLAS_CONTROLS:
                put(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _PIN_LOCK:
            _pin_depth -= 1
            if _pin_depth == 0:
                for (_, put), count in zip(_BLAS_CONTROLS, _pin_saved):
                    put(count)


def _grams(x: np.ndarray, z: np.ndarray, dims: ModelDims) -> tuple[np.ndarray, np.ndarray]:
    """S1 = X X^T / dims.T and S2 = Z Z^T / dims.n, exactly symmetric (numpy forms them with syrk).

    dims holds the degrees of freedom: the record counts, or one less for centered records.

    Raises:
        NumericalError: if a Gram overflows; numpy's warning is not shown, as this check follows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        s1, s2 = x @ x.T / dims.T, z @ z.T / dims.n
    _require_finite("the pencil", s1, s2)
    return s1, s2


def _data_spectrum(x: np.ndarray, z: np.ndarray, dims: ModelDims) -> np.ndarray:
    """Descending pencil eigenvalues of the Grams of X and Z, zero past S1's rank."""
    return _zero_beyond_rank(pencil_eigenvalues(*_grams(x, z, dims)), dims)


def _positive_inertia(a: np.ndarray) -> int:
    """Number of positive eigenvalues of the symmetric `a`, which LAPACK may overwrite.

    dsytrf factors A = U D U^T with D block diagonal, and by Sylvester's law
    of inertia D has A's signs.  A 1 x 1 block counts when it is positive.  A
    2 x 2 block of the Bunch-Kaufman pivoting has a negative determinant, so
    one eigenvalue of each sign: it adds one, and both of its ipiv entries are
    negative.  An exactly zero block (info > 0) counts as not positive.
    """
    a = np.ascontiguousarray(a, dtype=float)
    n = a.shape[0]
    ipiv = np.empty(n, dtype=np.intc)
    _lapack_with_workspace("dsytrf", b"U", n, a, max(1, n), ipiv)
    one_by_one = ipiv > 0
    positive = np.count_nonzero(np.diagonal(a)[one_by_one] > 0.0)
    return int(positive + np.count_nonzero(~one_by_one) // 2)


def _gram_count(
    x: np.ndarray, z: np.ndarray, dims: ModelDims, threshold: float, gate: float
) -> int:
    """The detector's count on the pencil of the Grams of X and Z (`_grams`), by inertia.

    No eigenvalue is computed: 0 when the top eigenvalue l_1 is below `gate`, else #{l > threshold}
    (gate >= threshold).  By Sylvester's law of inertia, l_1 < g exactly
    when g S2 - S1 is positive definite, one Cholesky factorization, and the
    eigenvalues above t are as many as the positive eigenvalues of S1 - t S2,
    one LDL^T factorization (`_positive_inertia`).  The eigenvalue rule of
    `detect.estimate_count` counts l >= t; the two differ only on exact ties.

    Raises:
        NumericalError: as `pencil_eigenvalues`: if S2 is not numerically
            positive definite or an entry is not finite.
    """
    s1, s2 = _grams(x, z, dims)
    # dpotrf's info is the first leading minor that is not positive definite (0 if none).  "U"
    # on the C-ordered Gram reads its lower triangle, as `pencil_eigenvalues` does.
    factor, p = s2.copy(), len(s2)
    _require_definite_noise(_lapack("dpotrf", b"U", p, factor, p), factor, s2)
    if _lapack("dpotrf", b"U", p, gate * s2 - s1, p) == 0:
        return 0
    return _positive_inertia(s1 - threshold * s2)


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
    """Sigma^{1/2} x, in place on a fresh draw: U diag(sqrt(a_i)) U^T on the first M rows."""
    m = spec.rank
    if m == 0:
        return x
    scales = np.repeat(np.sqrt(np.asarray(spec.values)), np.asarray(spec.multiplicities))
    basis = spec.basis_or_identity()
    x[:m] = ((basis * scales) @ basis.T) @ x[:m]
    return x


def _solve_lower(l2: np.ndarray, x: np.ndarray) -> np.ndarray:
    """L2^{-1} X for a lower-triangular L2: `solve_triangular(l2, x, lower=True)`, Fortran-ordered."""
    l2 = np.ascontiguousarray(l2, dtype=float)
    b = np.array(x, dtype=float, order="F")
    _require_finite("the whitened signal", l2, b)
    p, k = b.shape
    # Fortran reads the C-ordered L2 as the upper-triangular L2^T: solve (L2^T)^T B = X.
    info = _lapack("dtrtrs", b"U", b"T", b"N", p, k, l2, p, b, p)
    if info:
        raise NumericalError(f"LAPACK dtrtrs failed (info = {info}): the noise factor is singular")
    return b


def _symmetric_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of an exactly symmetric C-ordered matrix, overwriting it.

    The call `scipy.linalg.eigvalsh` makes: dsyevr on the lower triangle with
    the workspace its size query gives (the fixed minimum 26n has other bits).
    Exact symmetry lets LAPACK read the C-ordered matrix as its own transpose.
    """
    a = np.ascontiguousarray(a, dtype=float)
    _require_finite("the whitened signal's Gram", a)
    n = a.shape[0]
    vals = np.empty(n)
    # (jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol, m, w, z, ldz, isuppz)
    info = _lapack_with_workspace(
        "dsyevr", b"N", b"A", b"L", n, a, n, 0.0, 1.0, 1, n, 0.0, 0, vals,
        np.empty(1), 1, np.empty(2 * n, dtype=np.intc), dtypes=(float, np.intc),
    )
    if info:
        raise NumericalError(f"LAPACK dsyevr did not converge (info = {info})")
    return vals


def _bartlett_spectrum(x: np.ndarray, l2: np.ndarray, dims: ModelDims) -> np.ndarray:
    """Descending eigenvalues of B B^T n/T with B = L2^{-1} X (lower-triangular L2)."""
    b = _solve_lower(l2, x)
    # b @ b.T is exactly symmetric (numpy forms it with syrk), so it needs no Fortran copy.
    return _symmetric_eigenvalues(b @ b.T)[::-1] * (dims.n / dims.T)


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
        l2 = _wishart_factor(rng, dims.p, dims.n)
        vals = _zero_beyond_rank(_bartlett_spectrum(x, l2, dims), dims)
    else:
        w = dist.draw(rng, (dims.p, dims.T))
        vals = _data_spectrum(_spiked(w, spec), dist.draw(rng, (dims.p, dims.n)), dims)
    if not np.all(np.isfinite(vals)):
        raise NumericalError("the spectrum overflowed; a spike value is too large")
    return vals


def _zero_beyond_rank(vals: np.ndarray, dims: ModelDims) -> np.ndarray:
    """The descending `vals`, in place, with the p - min(p, T) past S1's rank set to exact zeros.

    A singular S1, which discrete entries can give, leaves negatives at
    rounding level; they become zeros too.

    Raises:
        NumericalError: if one of the top min(p, T) eigenvalues is negative
            beyond rounding (p eps times the top eigenvalue).
    """
    rank = min(dims.p, dims.T)
    vals[rank:] = 0.0
    if vals[rank - 1] < -dims.p * np.finfo(float).eps * vals[0]:
        raise NumericalError(f"pencil solver returned a negative eigenvalue {vals[rank - 1]:.3e}")
    return np.maximum(vals, 0.0, out=vals)


def spectrum_packets(eigenvalues: np.ndarray, spec: SpikeSpec) -> tuple[np.ndarray, ...]:
    """Extract each spike's packet of sample eigenvalues, in spike order.

    Packet i holds the n_i consecutive order statistics that track spike i:
    packets of spikes above 1 count from the top of the spectrum, packets
    of spikes below 1 from the bottom.

    Raises:
        ParameterError: unless the eigenvalues are a finite real vector
            (`errors.finite_array`), or if the spike rank exceeds its length.
    """
    vals = finite_array(eigenvalues, "eigenvalues", ndim=1)
    return tuple(vals[idx] for idx in spec.packet_indices(vals.size))
