"""Spiked Fisher matrices: limiting law, outlier CLTs, simulation, detection.

The public surface re-exports the `__all__` of every submodule;
`spikedfisher.cli` provides the matching command line front end.
"""

__version__ = "0.1.0"

# sampling first: it opens scipy's OpenBLAS before numpy is imported.
from . import sampling  # noqa: E402
from . import detect, errors, experiments, randomness, spikes, wachter  # noqa: E402

__all__ = ["__version__"]
for _module in (errors, wachter, spikes, sampling, detect, experiments, randomness):
    __all__ += _module.__all__
    # Binds `detect` to the function, as the submodule's own __all__ says.
    globals().update((name, getattr(_module, name)) for name in _module.__all__)
del _module
