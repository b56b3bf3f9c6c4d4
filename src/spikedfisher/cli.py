"""Command line front end.

Four subcommands:

    law            tabulate the limiting density and its support summary
    simulate-clt   Monte Carlo fluctuation study from a JSON config
    detect-study   frequency table of the signal counter along a ladder
    detect         run the signal counter on record files

All numeric CSV output uses 17 significant digits, '.' decimals, ','
separators, and a header row, so repeated runs with the same config and
seed are byte-identical regardless of thread count: BLAS runs on one
thread for the length of a command, so `--threads` is the only
parallelism and the machine's BLAS setting does not reach the bytes
(manifest.json records it as `blas_threads`).  Timestamps live only in
manifest.json.  Exit codes: 0 success, 2 invalid parameters or config,
3 numerical failure.

A study's JSON config is read through its subcommand's field table: each
key has a default (or is required) and a converter that calls the typed
constructor owning the key's rule; the results build a `CltConfig` or a
`DetectionConfig`.  Every missing, invalid or unknown key is reported at once.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import inspect
import json
# argparse's gettext imports locale on the first parse; load it with the package, not inside a study.
import locale  # noqa: F401
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .detect import (
    DetectorConfig,
    SignalModel,
    block_noise_model,
    equicorrelated_model,
    estimate_count,
    null_model,
    records_spectrum,
)
from .errors import (
    NumericalError,
    ParameterError,
    require_buffer,
    require_count,
    require_real,
)
from .experiments import (
    CltConfig,
    DetectionConfig,
    kde_1d,
    kde_2d,
    require_replicates,
    run_clt_study,
    run_detection_study,
    summarize,
)
from .randomness import require_seed
from .sampling import EntryDistribution, ModelDims, _blas_threads, _one_blas_thread
from .spikes import SpikeSpec
from .wachter import FisherParams, critical_interval, density, mass_at_zero, support_edges

__all__ = ["main", "build_parser"]


# Rows formatted by one %-operation; bounds the temporaries of a long float table.
_CSV_BLOCK_ROWS = 4096


def _write_csv(path: Path, header, table: np.ndarray, labels=None) -> None:
    """Write a header, then the rows of a 2-d float table, each led by its label if given.

    Floats are written "%.17g" and need no quoting; a label is written by %s.
    """
    width = table.shape[1]
    line = ("" if labels is None else "%s,") + ",".join(["%.17g"] * width) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for start in range(0, table.shape[0], _CSV_BLOCK_ROWS):
            block = table[start : start + _CSV_BLOCK_ROWS]
            cells = block.ravel().tolist()
            if labels is not None:
                columns = [cells[j::width] for j in range(width)]
                cells = [c for row in zip(labels[start : start + len(block)], *columns) for c in row]
            fh.write(line * len(block) % tuple(cells))


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_dir: Path, args, config: dict) -> None:
    """Record what ran: a study's `config` is the one it read, after any --seed."""
    _write_json(
        out_dir / "manifest.json",
        {
            "command": args.command,
            "version": __version__,
            "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
                timespec="seconds"
            ),
            "seed": config.get("seed"),
            "threads": getattr(args, "threads", None),
            "blas_threads": _blas_threads(),
            "config": config,
        },
    )


def _out_dir(args) -> Path:
    path = Path(args.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_config(path: str, seed: int | None) -> dict:
    """The JSON object in `path`, its seed replaced by `seed` unless that is None."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParameterError(f"config file {path} must hold a JSON object")
    return raw if seed is None else {**raw, "seed": seed}


_REQUIRED = object()


def _invalid(*messages: str) -> ParameterError:
    return ParameterError("invalid configuration:\n  - " + "\n  - ".join(messages))


def _read_fields(raw: dict, fields: dict) -> dict:
    """Convert each key of a JSON config by its (default, converter) entry in `fields`.

    Every missing `_REQUIRED` key, invalid value or unknown key is reported
    in one ParameterError.
    """
    values, bad = {}, []
    for key, (default, convert) in fields.items():
        value = raw.get(key, default)
        if value is _REQUIRED:
            bad.append(f"{key}: missing required key")
            continue
        try:
            values[key] = convert(value)
        except ParameterError as exc:
            bad.append(f"{key}: {exc}")
    bad += [f"{key}: unknown key" for key in sorted(set(raw) - set(fields))]
    if bad:
        raise _invalid(*bad)
    return values


def _build(label: str, make, *args):
    """Run a constructor whose rule spans several keys; report it like a key's."""
    try:
        return make(*args)
    except ParameterError as exc:
        raise _invalid(f"{label}: {exc}") from None


_OUTPUTS = ("summary", "kde")


def _kde_points(value) -> int:
    points = require_count(value, "kde_points", 2)
    require_buffer((points * points, 4), "the 2-d density table")  # the largest array
    return points


def _outputs(value) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(o in _OUTPUTS for o in value):
        raise ParameterError(f"must be a list drawn from {_OUTPUTS}, got {value!r}")
    return tuple(value)


_CLT_FIELDS = {
    "dims": (_REQUIRED, ModelDims.coerce),
    "spikes": (_REQUIRED, lambda v: SpikeSpec(spikes=v)),
    "basis": (None, lambda v: v),  # checked against the spikes by SpikeSpec below
    "distribution": ("gaussian", EntryDistribution),
    "replicates": (_REQUIRED, lambda v: require_replicates(v, CltConfig.MIN_REPLICATES)),
    "seed": (_REQUIRED, require_seed),
    "kde_points": (101, _kde_points),
    "outputs": (list(_OUTPUTS), _outputs),
}


def _clt_config(raw: dict) -> tuple[CltConfig, dict]:
    f = _read_fields(raw, _CLT_FIELDS)
    spec = _build("basis", SpikeSpec, f["spikes"].spikes, f["basis"])
    config = _build("spikes", CltConfig, f["dims"], spec, f["distribution"], f["replicates"], f["seed"])
    return config, f


# Model kind -> its SignalModel constructor; `dims` comes first and the
# other parameters are the kind's keys, whose values it checks at each rung.
_MODEL_KINDS = {
    "block-noise": block_noise_model,
    "equicorrelated": equicorrelated_model,
    "null": null_model,
    "custom": lambda dims, mixing, noise_cov: SignalModel(mixing, noise_cov, dims),
}


def _model(value):
    if not isinstance(value, dict) or "kind" not in value:
        raise ParameterError('must be an object with a "kind" key')
    args = dict(value)
    kind = args.pop("kind")
    if not isinstance(kind, str) or kind not in _MODEL_KINDS:
        raise ParameterError(f"unknown kind {kind!r}; choose from {tuple(_MODEL_KINDS)}")
    make = _MODEL_KINDS[kind]
    try:
        inspect.signature(make).bind(None, **args)
    except TypeError as exc:
        raise ParameterError(f"kind {kind!r}: {exc}") from None
    return lambda dims: make(dims, **args)


def _ladder(value) -> tuple[ModelDims, ...]:
    if not isinstance(value, list) or not value:
        raise ParameterError(f"must be a nonempty list of [p, n, T] entries, got {value!r}")
    return tuple(ModelDims.coerce(entry) for entry in value)


_DETECT_FIELDS = {
    "ladder": (_REQUIRED, _ladder),
    "model": (_REQUIRED, _model),
    "distribution": ("gaussian", EntryDistribution),
    "replicates": (_REQUIRED, lambda v: require_replicates(v, DetectionConfig.MIN_REPLICATES)),
    "seed": (_REQUIRED, require_seed),
    "dn_override": (None, lambda v: DetectorConfig(shift=v)),
}


def _detect_config(raw: dict) -> DetectionConfig:
    f = _read_fields(raw, _DETECT_FIELDS)
    models = _build("model", lambda: tuple(map(f["model"], f["ladder"])))
    return DetectionConfig(models, f["distribution"], f["replicates"], f["seed"], f["dn_override"])


# The largest grid `law` writes: 10**6 points take about 150 MB and 5 s, and
# density's temporaries and the CSV grow in proportion.
_MAX_LAW_POINTS = 10**6


def cmd_law(args) -> int:
    params = FisherParams(c=args.c, y=args.y)
    edges = support_edges(params)
    if require_count(args.points, "--points", 0) > _MAX_LAW_POINTS:
        raise ParameterError(f"--points must be at most {_MAX_LAW_POINTS}, got {args.points}")
    x_min = edges.lower if args.x_min is None else require_real(args.x_min, "--x-min")
    x_max = edges.upper if args.x_max is None else require_real(args.x_max, "--x-max")
    if args.points > 1 and not 0.0 < x_max - x_min < math.inf:
        if args.x_min is None and args.x_max is None:
            raise ParameterError(
                f"the support at c={args.c}, y={args.y} has no width in floating point "
                f"([{x_min}, {x_max}]); pass --x-min and --x-max, or --points 0 or 1"
            )
        raise ParameterError(f"need --x-min < --x-max with a finite width, got [{x_min}, {x_max}]")

    out = _out_dir(args)
    grid = np.linspace(x_min, x_max, args.points)
    _write_csv(out / "law.csv", ["x", "density"], np.column_stack([grid, density(params, grid)]))
    low, high = critical_interval(params)
    _write_json(
        out / "summary.json",
        {
            "b1": edges.lower,
            "b": edges.upper,
            "mass_at_zero": mass_at_zero(params),
            "critical_low": low,
            "critical_high": high,
        },
    )
    _write_manifest(
        out, args, {"c": args.c, "y": args.y, "points": args.points, "x_min": x_min, "x_max": x_max}
    )
    print(f"wrote law.csv, summary.json, manifest.json to {out}")
    return 0


def _kde_grid(values: np.ndarray, points: int) -> np.ndarray:
    lo = float(values.min())
    hi = float(values.max())
    pad = 0.05 * (hi - lo)
    return np.linspace(lo - pad, hi + pad, points)


def _clt_summary_entry(spec: SpikeSpec, result, index: int) -> dict:
    spike_value, mult = spec.spikes[index]
    consts = result.constants[index]
    emp = result.empirical[index]
    lim = result.limit[index]
    members = []
    for j in range(mult):
        stats = summarize(emp[:, j])
        lim_stats = summarize(lim[:, j])
        member = {
            "mean": stats.mean,
            "variance": stats.variance,
            "limit_mean": lim_stats.mean,
            "limit_variance": lim_stats.variance,
        }
        if mult == 1:
            direction = spec.block_columns(index)[:, 0]
            ref_var = consts.projection_variance(direction)
            member["reference_variance"] = ref_var
            member["ks_vs_reference"] = summarize(emp[:, j], 0.0, ref_var).ks_distance
        members.append(member)
    return {
        "value": spike_value,
        "multiplicity": mult,
        "outlier": consts.lam,
        "delta": consts.delta,
        "theta": consts.theta,
        "omega": consts.omega,
        "sigma_sq": consts.sigma_sq,
        "members": members,
    }


def cmd_simulate_clt(args) -> int:
    raw = _load_config(args.config, args.seed)
    config, fields = _clt_config(raw)
    kde_points = fields["kde_points"]
    result = run_clt_study(config, threads=args.threads)
    out = _out_dir(args)

    spikes = config.spec.spikes
    header = ["replicate"] + [
        f"{kind}_{i + 1}_{j + 1}"
        for kind in ("stat", "limit")
        for i, (_, mult) in enumerate(spikes)
        for j in range(mult)
    ]
    table = np.hstack(result.empirical + result.limit)
    _write_csv(out / "replicates.csv", header, table, range(len(table)))
    written = ["replicates.csv"]

    if "kde" in fields["outputs"]:
        # Packets of multiplicity > 2 are summarized but not gridded.
        for i, (emp, lim) in enumerate(zip(result.empirical, result.limit)):
            if emp.shape[1] > 2:
                continue
            grids = [_kde_grid(np.concatenate([e, l]), kde_points) for e, l in zip(emp.T, lim.T)]
            if len(grids) == 1:
                name, coords = f"kde_spike{i + 1}.csv", ["value"]
                dens = [kde_1d(sample[:, 0], grids[0]) for sample in (emp, lim)]
            else:
                name, coords = f"kde2d_spike{i + 1}.csv", ["x1", "x2"]
                dens = [kde_2d(sample, *grids).ravel() for sample in (emp, lim)]
            # Rows run over the first grid, then the second: the C order of the surfaces.
            lattice = [g.ravel() for g in np.meshgrid(*grids, indexing="ij")]
            table = np.column_stack(lattice + dens)
            _write_csv(out / name, coords + ["empirical_density", "limit_density"], table)
            written.append(name)

    if "summary" in fields["outputs"]:
        summary = {
            "dims": {"p": config.dims.p, "n": config.dims.n, "T": config.dims.T},
            "distribution": config.dist.name,
            "replicates": config.replicates,
            "spikes": [_clt_summary_entry(config.spec, result, i) for i in range(len(spikes))],
        }
        _write_json(out / "summary.json", summary)
        written.append("summary.json")

    _write_manifest(out, args, raw)
    written.append("manifest.json")
    print(f"wrote {', '.join(written)} to {out}")
    return 0


def cmd_detect_study(args) -> int:
    raw = _load_config(args.config, args.seed)
    table = run_detection_study(_detect_config(raw), threads=args.threads)
    out = _out_dir(args)
    _write_csv(
        out / "frequency.csv", ["count", *table.column_labels], table.frequencies, table.row_labels
    )
    _write_manifest(out, args, raw)
    print(f"wrote frequency.csv, manifest.json to {out}")
    return 0


def _load_matrix(path: str) -> np.ndarray:
    suffix = Path(path).suffix.lower()
    try:
        if suffix == ".npy":
            arr = np.load(path)
        elif suffix == ".csv":
            with warnings.catch_warnings():  # an empty file warns; it is rejected below
                warnings.simplefilter("ignore", UserWarning)
                arr = np.loadtxt(path, delimiter=",", ndmin=2)
        else:
            raise ParameterError(
                f"unsupported records format {suffix!r} for {path}; use .npy or .csv"
            )
    except OSError as exc:
        raise ParameterError(f"cannot read records file {path}: {exc}") from exc
    except ValueError as exc:
        raise ParameterError(f"cannot parse records file {path}: {exc}") from exc
    if np.size(arr) == 0:
        raise ParameterError(f"records file {path} holds no values")
    return arr  # checked by records_spectrum


def cmd_detect(args) -> int:
    require_count(args.top, "--top", 0)
    x = _load_matrix(args.signal)
    z = _load_matrix(args.noise)
    config = DetectorConfig(shift=args.dn_override)
    vals, dims = records_spectrum(x, z, center=args.center)
    threshold, gate = config.levels(dims)
    result = {
        "k_hat": estimate_count(vals, dims, config),
        "b": support_edges(dims.fisher_params()).upper,
        "d_n": config.offset(dims.p),
        "threshold": threshold,
        "gate": gate,
        "p": dims.p,
        "T": dims.T,
        "n": dims.n,
        "top_eigenvalues": [float(v) for v in vals[: args.top]],
    }
    print(json.dumps(result, indent=2, sort_keys=True))
    if args.out_dir is not None:
        out = _out_dir(args)
        _write_json(out / "result.json", result)
        _write_manifest(
            out,
            args,
            {
                "signal": args.signal,
                "noise": args.noise,
                "dn_override": args.dn_override,
                "center": args.center,
                "top": args.top,
            },
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikedfisher",
        description="Spiked Fisher matrices: limiting law, fluctuation studies, signal counting.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_law = sub.add_parser("law", help="tabulate the limiting density and support")
    p_law.add_argument("c", type=float, help="dimension-to-signal-sample ratio p/T")
    p_law.add_argument("y", type=float, help="dimension-to-noise-sample ratio p/n")
    p_law.add_argument("--points", type=int, default=512, help="grid size (0 for header-only CSV)")
    p_law.add_argument("--x-min", type=float, default=None, help="grid start (default: lower edge)")
    p_law.add_argument("--x-max", type=float, default=None, help="grid end (default: upper edge)")
    p_law.add_argument("--out-dir", default=".", help="output directory")
    p_law.set_defaults(func=cmd_law)

    study = argparse.ArgumentParser(add_help=False)  # the options both studies take
    study.add_argument("--config", required=True, help="JSON study configuration")
    study.add_argument("--out-dir", default=".", help="output directory")
    study.add_argument("--seed", type=int, default=None, help="override the config seed")
    study.add_argument("--threads", type=int, default=1, help="worker threads (results identical)")
    sub.add_parser(
        "simulate-clt", parents=[study], help="Monte Carlo fluctuation study"
    ).set_defaults(func=cmd_simulate_clt)
    sub.add_parser(
        "detect-study", parents=[study], help="signal-counter frequencies along a ladder"
    ).set_defaults(func=cmd_detect_study)

    p_det = sub.add_parser("detect", help="count signals in record files")
    p_det.add_argument("--signal", required=True, help="signal-bearing records, p x T (.npy or .csv)")
    p_det.add_argument("--noise", required=True, help="noise-only records, p x n (.npy or .csv)")
    p_det.add_argument(
        "--dn-override", type=float, default=None, help="fixed threshold offset replacing the d_n rule"
    )
    p_det.add_argument(
        "--center",
        action="store_true",
        help="subtract row means first and score at n - 1 and T - 1 degrees of freedom",
    )
    p_det.add_argument("--top", type=int, default=10, help="eigenvalues to report")
    p_det.add_argument("--out-dir", default=None, help="also write result.json and manifest.json")
    p_det.set_defaults(func=cmd_detect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _one_blas_thread():
            return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, OverflowError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
