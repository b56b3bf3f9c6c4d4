"""Span recorder that wraps spikedfisher's public functions from outside.

Each wrapped call appends one span (id, parent id, name, start ns, end ns,
thread id, ok, count) to an in-memory list.  `count` is an exact amount of
work computed from the argument shapes (variates drawn, nominal flops) or
None.  The parent of a span is the innermost open span on the calling
thread; a replicate run on a pool thread takes as parent the span that
called `experiments._map_indexed`, so the span tree crosses threads.
"""

import itertools
import math
import sys
import threading
import time


def _variates(_self, _rng, shape):
    return math.prod(shape)


def _gram_flops_dims(_rng, dims, *_args, **_kwargs):
    # Nominal GEMM count of W W^T and Z Z^T: 2 p^2 T + 2 p^2 n.
    return 2 * dims.p * dims.p * (dims.T + dims.n)


def _gram_flops_records(x, z, *_args, **_kwargs):
    p, t_len = x.shape
    return 2 * p * p * (t_len + z.shape[1])


def _pencil_flops(s1, _s2):
    # Nominal LAPACK count for the eigenvalues of a definite pencil:
    # Cholesky p^3/3, reduction to standard form p^3, tridiagonalisation 4p^3/3.
    p = s1.shape[0]
    return 8 * p**3 // 3


# (module, attribute, span name, count of work from the arguments)
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("experiments", "run_clt_study", "experiments.run_clt_study", None),
    ("experiments", "run_detection_study", "experiments.run_detection_study", None),
    ("experiments", "kde_1d", "experiments.kde", None),
    ("experiments", "kde_2d", "experiments.kde", None),
    ("experiments", "summarize", "experiments.summarize", None),
    ("sampling", "sample_spectrum", "sampling.sample_spectrum", _gram_flops_dims),
    ("sampling", "spectrum_packets", "sampling.spectrum_packets", None),
    ("sampling", "pencil_eigenvalues", "sampling.pencil_eigenvalues", _pencil_flops),
    ("spikes", "sample_limit_batch", "spikes.sample_limit_batch", None),
    ("spikes", "clt_constants", "spikes.clt_constants", None),
    ("detect", "records_spectrum", "detect.records_spectrum", _gram_flops_records),
    ("detect", "estimate_count", "detect.estimate_count", None),
    ("randomness", "stream_generator", "randomness.stream_generator", None),
    ("wachter", "density", "wachter.density", None),
    ("wachter", "support_edges", "wachter.support_edges", None),
)


class Tracer:
    """Holds the spans of one process and the wrappers that record them."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0]
        return stack

    def _call(self, name, parent, count, func, args, kwargs):
        stack = self._stack()
        sid = next(self._ids)
        stack.append(sid)
        ok = False
        start = time.perf_counter_ns()
        try:
            result = func(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(
                (sid, parent, name, start, end, threading.get_ident(), ok, count)
            )

    def wrap(self, name, func, counter=None):
        def wrapper(*args, **kwargs):
            count = None if counter is None else counter(*args, **kwargs)
            return self._call(name, self._stack()[-1], count, func, args, kwargs)

        return wrapper

    def wrap_map(self, map_indexed):
        """Wrap `_map_indexed` so that each replicate is a span of its own."""

        def wrapper(worker, count, threads):
            def run():
                map_id = self._stack()[-1]

                def replicate(index):
                    return self._call(
                        "experiments.replicate", map_id, None, worker, (index,), {}
                    )

                return map_indexed(replicate, count, threads)

            return self._call(
                "experiments.map", self._stack()[-1], threads, run, (), {}
            )

        return wrapper

    def install(self) -> None:
        """Replace every binding of each target in the package's modules."""
        import spikedfisher.cli  # noqa: F401  (loads every submodule)
        from spikedfisher import experiments, sampling

        replacements = {}
        for module_name, attr, name, counter in TARGETS:
            func = getattr(sys.modules[f"spikedfisher.{module_name}"], attr)
            replacements[id(func)] = (func, self.wrap(name, func, counter))
        func = experiments._map_indexed
        replacements[id(func)] = (func, self.wrap_map(func))
        dist = sampling.EntryDistribution
        dist.draw = self.wrap("sampling.draw", dist.draw, _variates)
        for module_name, module in list(sys.modules.items()):
            if module_name != "spikedfisher" and not module_name.startswith("spikedfisher."):
                continue
            for key, value in list(vars(module).items()):
                entry = replacements.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, key, entry[1])
