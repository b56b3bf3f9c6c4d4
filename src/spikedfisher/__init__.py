"""Spiked Fisher matrices: limiting law, outlier CLTs, simulation, detection.

The public surface re-exports the `__all__` of every submodule;
`spikedfisher.cli` provides the matching command line front end.

The exports load on first use (PEP 562): `import spikedfisher` imports no
numpy and opens no OpenBLAS, so `spikedfisher.cli` can choose the thread
pool the libraries start with before anything loads them.  The first name
looked up loads every submodule, as an eager package would.
`spikedfisher.detect` is the function whichever import loaded the
submodule of that name.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# The submodules whose `__all__` the package re-exports, in this order.
_SUBMODULES = ("errors", "wachter", "spikes", "sampling", "detect", "experiments", "randomness")


class _Package(types.ModuleType):
    def __getattr__(self, name: str):
        # Dunder probes (copy, pickle, inspect) load nothing; `__all__` loads everything.
        if "__all__" in vars(self) or (name.startswith("__") and name != "__all__"):
            raise AttributeError(f"module {self.__name__!r} has no attribute {name!r}")
        exports = ["__version__"]
        for sub in _SUBMODULES:
            module = importlib.import_module(f".{sub}", self.__name__)
            exports += module.__all__
            vars(self).update((n, getattr(module, n)) for n in module.__all__)
        vars(self)["__all__"] = exports
        return getattr(self, name)

    def __setattr__(self, name: str, value) -> None:
        # The import system binds each submodule it loads to the package; one
        # that exports its own name (`detect`) leaves that export bound instead.
        if isinstance(value, types.ModuleType) and name in getattr(value, "__all__", ()):
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
