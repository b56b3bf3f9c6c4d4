"""Error types shared across the package, and the count, size, number and array rules.

Two failure classes are distinguished so that callers (and the command line
front end) can map them to different exit codes: bad inputs versus numerical
breakdown at valid inputs.
"""

import math
import numbers

import numpy as np

__all__ = ["ParameterError", "NumericalError"]

# The most values one array may hold (800 MB of float64).  A fixed bound,
# so a config is accepted or rejected the same way on every machine.
MAX_ELEMENTS = 10**8


class ParameterError(ValueError):
    """A parameter, configuration value, or argument violates its contract."""


class NumericalError(RuntimeError):
    """A numerical routine failed at inputs that passed validation."""


def require_count(value, label: str, minimum: int) -> int:
    """An integer (not a bool) of at least `minimum`, returned as an int."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ParameterError(f"{label} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def require_buffer(shape: tuple[int, ...], label: str) -> None:
    """The size rule: an array of this shape holds at most MAX_ELEMENTS values."""
    if math.prod(shape) > MAX_ELEMENTS:
        size = " x ".join(map(str, shape))
        raise ParameterError(f"{label} would need a {size} array, above {MAX_ELEMENTS} values")


def require_real(value, label: str) -> float:
    """A finite real number (not a bool), returned as a float."""
    try:
        if not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an int beyond the float range
        pass
    raise ParameterError(f"{label} must be a finite number, got {value!r}")


def finite_array(values, label: str, ndim: int | None = 2) -> np.ndarray:
    """The array rule of models, records, spike bases, spectra and samples.

    An array passes if it holds real numbers (not bools), has exactly `ndim`
    dimensions (any number when `ndim` is None), and every entry is finite.
    It is returned as floats.

    Only integer and float dtypes pass: a cast to float would drop a complex
    part, and would read strings or a structured array as if they were numbers.
    """
    kind = {1: "vector", 2: "matrix with rows of equal length"}.get(ndim, "array")
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError):  # rows of unequal length
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise ParameterError(f"{label} must be a real {kind}")
    arr = arr.astype(float, copy=False)
    if ndim is not None and arr.ndim != ndim:
        raise ParameterError(f"{label} must be {ndim}-d, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{label} contains non-finite values")
    return arr
