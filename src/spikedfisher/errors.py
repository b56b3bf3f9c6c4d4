"""Error types shared across the package, and the count, size, number and matrix rules.

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


def finite_matrix(mat, label: str) -> np.ndarray:
    """The matrix rule of models, records and spike bases.

    A matrix passes if it holds real numbers (not bools), is 2-d, and every
    entry is finite.

    Only integer and float dtypes pass: a cast to float would drop a complex
    part, and would read strings or a structured array as if they were numbers.
    """
    try:
        mat = np.asarray(mat)
    except (TypeError, ValueError):  # rows of unequal length
        mat = None
    if mat is None or mat.dtype.kind not in "iuf":
        raise ParameterError(f"{label} must be a real matrix with rows of equal length")
    mat = mat.astype(float, copy=False)
    if mat.ndim != 2:
        raise ParameterError(f"{label} must be 2-d, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ParameterError(f"{label} contains non-finite values")
    return mat
