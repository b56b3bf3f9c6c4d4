"""Seed handling shared by the samplers.

Counter-based Philox streams keyed through `numpy.random.SeedSequence` make
every replicate's stream a pure function of (master seed, stream tags),
independent of thread scheduling or the order replicates are launched in.
"""

from __future__ import annotations

import numbers

import numpy as np
# numpy 2 loads numpy.random on first use; load it with the package, not inside a study.
import numpy.random  # noqa: F401

from .errors import ParameterError

__all__ = ["ensure_generator", "stream_generator"]


def require_seed(value) -> int:
    """A seed: an integer (not a bool) in [0, 2**64), returned as an int."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not 0 <= value < 2**64:
        raise ParameterError(f"seed must be a nonnegative 64-bit integer, got {value!r}")
    return int(value)


def ensure_generator(seed_or_rng) -> np.random.Generator:
    """Pass a Generator through; spawn a fresh Philox stream from a seed.

    Accepts an existing `numpy.random.Generator`, a seed, or a tuple of
    seeds (entropy for a `SeedSequence`); every seed passes `require_seed`,
    so no stream is drawn from OS entropy.
    """
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    several = isinstance(seed_or_rng, tuple)
    entropy = tuple(map(require_seed, seed_or_rng)) if several else require_seed(seed_or_rng)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def stream_generator(master_seed: int, *tags: int) -> np.random.Generator:
    """Independent stream for one unit of work, keyed by (master_seed, *tags)."""
    return ensure_generator((master_seed, *tags))
