"""Per-layer metrics from the spans of traced invocations.

Self time is wall-clock attribution: at every instant the time goes to the
leaves of the tree of open spans (open spans with no open child), shared
equally when several run at once on different threads.  On one thread this
is a span's duration minus the time its children cover; with a thread pool
the per-layer self times still add up to the wall time of `cli.main`.
"""

from collections import defaultdict

# Spans of the replicate machinery are credited to the study that owns them:
# the dense products of a detection replicate belong to run_detection_study.
FOLDED = ("experiments.map", "experiments.replicate")

SELF_MS = (
    "cli.main",
    "experiments.run_clt_study",
    "experiments.run_detection_study",
    "experiments.kde",
    "experiments.summarize",
    "sampling.sample_spectrum",
    "sampling.spectrum_packets",
    "sampling.pencil_eigenvalues",
    "sampling.draw",
    "spikes.sample_limit_batch",
    "detect.records_spectrum",
    "detect.estimate_count",
    "randomness.stream_generator",
    "wachter.density",
)

CALLS = (
    "sampling.pencil_eigenvalues",
    "sampling.draw",
    "spikes.clt_constants",
    "randomness.stream_generator",
    "wachter.support_edges",
)


def attribute_self_ns(spans) -> dict:
    """Self time in ns of each span id; see the module docstring."""
    parent_of = {s[0]: s[1] for s in spans}
    events = []
    for sid, _parent, _name, start, end, *_rest in spans:
        events.append((start, 1, sid))
        events.append((end, 0, -sid))
    # At equal times ends go first, children (larger ids) before parents.
    events.sort()
    open_children = defaultdict(int)
    active = set()
    leaves = set()
    self_ns = defaultdict(float)
    last = None
    for when, kind, key in events:
        if leaves:
            share = (when - last) / len(leaves)
            for sid in leaves:
                self_ns[sid] += share
        last = when
        if kind == 1:
            parent = parent_of[key]
            if parent in active:
                open_children[parent] += 1
                leaves.discard(parent)
            active.add(key)
            leaves.add(key)
        else:
            sid = -key
            active.discard(sid)
            leaves.discard(sid)
            parent = parent_of[sid]
            if parent in active:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return self_ns


def _layer_names(spans) -> dict:
    """Span id -> layer name, folding replicate machinery into its owner."""
    by_id = {s[0]: s for s in spans}
    layer = {}
    for sid, _parent, name, *_rest in spans:
        node = sid
        while by_id[node][2] in FOLDED and by_id[node][1] in by_id:
            node = by_id[node][1]
        layer[sid] = by_id[node][2]
    return layer


class LayerTotals:
    """Sums over the traced invocations of one run."""

    def __init__(self) -> None:
        self.self_ns = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.failures = defaultdict(int)
        self.replicate_ns = 0
        self.pool_capacity_ns = 0

    def add(self, spans) -> None:
        self_ns = attribute_self_ns(spans)
        layer = _layer_names(spans)
        for sid, _parent, name, start, end, _thread, ok, count in spans:
            self.self_ns[layer[sid]] += self_ns[sid]
            self.calls[name] += 1
            if count is not None and name != "experiments.map":
                self.counts[name] += count
            if not ok:
                self.failures[name] += 1
            if name == "experiments.replicate":
                self.replicate_ns += end - start
            elif name == "experiments.map":
                self.pool_capacity_ns += (end - start) * count

    def metrics(self, ops: int, main_s: float) -> dict:
        """Per-operation layer metrics; `main_s` is the summed cli.main wall."""
        out = {}
        for name in SELF_MS:
            out[f"{name}.self_ms"] = self.self_ns[name] / 1e6 / ops
        for name in CALLS:
            out[f"{name}.calls"] = self.calls[name] / ops
        out["sampling.pencil_eigenvalues.failures"] = (
            self.failures["sampling.pencil_eigenvalues"] / ops
        )
        out["sampling.pencil_eigenvalues.flops"] = (
            self.counts["sampling.pencil_eigenvalues"] / ops
        )
        out["sampling.draw.variates"] = self.counts["sampling.draw"] / ops
        out["sampling.gram.flops"] = (
            self.counts["sampling.sample_spectrum"] + self.counts["detect.records_spectrum"]
        ) / ops
        out["experiments.pool.busy_ratio"] = (
            self.replicate_ns / self.pool_capacity_ns if self.pool_capacity_ns else 0.0
        )
        covered = sum(self.self_ns[name] for name in SELF_MS) / 1e9
        out["trace.coverage"] = covered / main_s
        return out
