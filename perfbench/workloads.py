"""The four workloads: inputs made from a seed, CLI calls, output checks.

BENCHMARK.json names clt-gauss and detect-ladder.  clt-rademacher and
cli-oneshot run by name and in --smoke; see perfbench/README.md for why
they are left out of the benchmark.

A workload writes its inputs once per run (`prepare`) and then yields units
of work (`unit`): one CLI invocation for a study, one round of three
commands for cli-oneshot.  Each invocation carries a check that reads the
files the CLI wrote and returns a list of failures.

Statistical checks are anchored on the acceptance gates of
tests/test_acceptance.py and widened to Z standard errors at the
replicate count of one invocation, so they hold at any seed.
"""

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

Z = 5.0
SPIKES = [[20.0, 1], [0.2, 2], [0.1, 1]]
TOP_OUTLIER = 128.0 / 3.0  # phi(20) at c = 0.2, y = 0.5
B_UPPER = 12.596773353931868  # upper bulk edge at c = 0.2, y = 0.5
SIGMA_SQ_TOP = {"gaussian": 4246.8, "rademacher": 2039.8}
ROTATED_BOTTOM_VARIANCE = 0.004
ROTATED_BASIS = [
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, math.sqrt(0.5), math.sqrt(0.5)],
    [0.0, 0.0, math.sqrt(0.5), -math.sqrt(0.5)],
]
LADDER = [[q, 2 * q, 5 * q] for q in (50, 100, 150, 200, 250)]
SMOKE_LADDER = [[50, 100, 250], [250, 500, 1250]]
LAW_POINTS = 512


@dataclass
class Invocation:
    """One CLI call: its arguments, output directory, work done and check."""

    argv: list
    out_dir: Path
    ops: int
    check: Callable[[Path, str], list]


def _rel_tolerance(gate: float, replicates: int) -> float:
    """Relative tolerance of a sample variance: the gate or Z standard errors."""
    return max(gate, Z * math.sqrt(2.0 / (replicates - 1)))


def _read_numeric_csv(path: Path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def _line_count(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


class CltStudy:
    """`simulate-clt --threads 2` on the acceptance spikes at (200, 400, 1000)."""

    def __init__(self, distribution: str, basis) -> None:
        self.distribution = distribution
        self.basis = basis

    def prepare(self, work: Path, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.dims = [40, 80, 200] if smoke else [200, 400, 1000]
        self.replicates = 20 if smoke else 50
        self.kde_points = 101
        self.config = work / "study.json"
        self.config.write_text(
            json.dumps(
                {
                    "dims": self.dims,
                    "spikes": SPIKES,
                    "basis": self.basis,
                    "distribution": self.distribution,
                    "replicates": self.replicates,
                    "seed": seed,
                    "kde_points": self.kde_points,
                    "outputs": ["summary", "kde"],
                }
            ),
            encoding="utf-8",
        )

    def unit(self, index: int, out_dir: Path) -> list:
        argv = [
            "simulate-clt", "--config", str(self.config), "--out-dir", str(out_dir),
            "--seed", str(self.seed * 1000 + index), "--threads", "2",
        ]
        return [Invocation(argv, out_dir, self.replicates, self.check)]

    def check(self, out_dir: Path, _stdout: str) -> list:
        errors = []
        for name, lines in (
            ("kde_spike1.csv", self.kde_points + 1),
            ("kde2d_spike2.csv", self.kde_points**2 + 1),
            ("kde_spike3.csv", self.kde_points + 1),
        ):
            if _line_count(out_dir / name) != lines:
                errors.append(f"{name} does not have {lines} lines")
        header, data = _read_numeric_csv(out_dir / "replicates.csv")
        if data.shape[0] != self.replicates:
            errors.append(f"replicates.csv has {data.shape[0]} rows, not {self.replicates}")
        stat = {h: data[:, i] for i, h in enumerate(header) if h.startswith("stat_")}
        if sorted(stat) != ["stat_1_1", "stat_2_1", "stat_2_2", "stat_3_1"]:
            errors.append(f"unexpected statistic columns {sorted(stat)}")
            return errors
        if not all(np.all(np.isfinite(v)) for v in stat.values()):
            errors.append("a stat_* value is not finite")
            return errors
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        sigma_sq = summary["spikes"][0]["sigma_sq"]
        expected = SIGMA_SQ_TOP[self.distribution]
        if abs(sigma_sq - expected) > 1e-3 * expected:
            errors.append(f"summary sigma_sq {sigma_sq} is not {expected}")
        p, reps = self.dims[0], self.replicates
        top_var = float(np.var(stat["stat_1_1"], ddof=1))
        tol = _rel_tolerance(0.20, reps)
        if abs(top_var / sigma_sq - 1.0) > tol:
            errors.append(f"top variance {top_var:.1f} not within {tol:.0%} of {sigma_sq:.1f}")
        if self.distribution == "gaussian":
            mean_top = TOP_OUTLIER + float(np.mean(stat["stat_1_1"])) / math.sqrt(p)
            tol = max(0.02 * TOP_OUTLIER, Z * math.sqrt(sigma_sq / (p * reps)))
            if abs(mean_top - TOP_OUTLIER) > tol:
                errors.append(f"mean top outlier {mean_top:.3f} not within {tol:.3f} of 128/3")
        else:
            bottom_var = float(np.var(stat["stat_3_1"], ddof=1))
            tol = _rel_tolerance(0.25, reps)
            if abs(bottom_var / ROTATED_BOTTOM_VARIANCE - 1.0) > tol:
                errors.append(f"rotated bottom variance {bottom_var:.5f} not near 0.004")
        return errors


class DetectLadder:
    """`detect-study` on the block-noise ladder with the CLI default --threads 1."""

    def prepare(self, work: Path, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.ladder = SMOKE_LADDER if smoke else LADDER
        self.replicates = 10
        self.config = work / "ladder.json"
        self.config.write_text(
            json.dumps(
                {
                    "ladder": self.ladder,
                    "model": {"kind": "block-noise"},
                    "distribution": "gaussian",
                    "replicates": self.replicates,
                    "seed": seed,
                }
            ),
            encoding="utf-8",
        )

    def unit(self, index: int, out_dir: Path) -> list:
        argv = [
            "detect-study", "--config", str(self.config), "--out-dir", str(out_dir),
            "--seed", str(self.seed * 1000 + index),
        ]
        return [Invocation(argv, out_dir, self.replicates * len(self.ladder), self.check)]

    def check(self, out_dir: Path, _stdout: str) -> list:
        errors = []
        with open(out_dir / "frequency.csv", encoding="utf-8", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        columns = [f"p={dims[0]}" for dims in self.ladder]
        labels = [row[0] for row in rows]
        if header != ["count", *columns] or labels != ["0", "1", "2", "3", "4", "5+"]:
            return [f"frequency.csv has header {header} and rows {labels}"]
        table = np.array([row[1:] for row in rows], dtype=float)
        if np.max(np.abs(table.sum(axis=0) - 1.0)) > 1e-12:
            errors.append("a frequency column does not sum to 1")
        scaled = table * self.replicates
        if np.max(np.abs(scaled - np.round(scaled))) > 1e-9:
            errors.append("a frequency is not a multiple of 1/replicates")
        # test_09 gates P(k=3) >= 0.90 at p=250 over 1000 replicates.
        floor = min(0.85, 0.90 - Z * math.sqrt(0.90 * 0.10 / self.replicates))
        hit = float(table[3, columns.index("p=250")])
        if hit < floor:
            errors.append(f"P(k=3) at p=250 is {hit}, below {floor:.3f}")
        return errors


class CliOneshot:
    """Round robin of `detect` on .npy, `detect` on .csv and `law 0.2 0.5`."""

    def prepare(self, work: Path, seed: int, smoke: bool) -> None:
        p = 50 if smoke else 250
        t_len, n_len = 5 * p, 2 * p
        rng = np.random.default_rng(seed)
        directions = np.linalg.qr(rng.standard_normal((p, 3)))[0]
        mixing = directions * np.sqrt([20.0, 15.0, 10.0])
        signal = mixing @ rng.standard_normal((3, t_len)) + rng.standard_normal((p, t_len))
        noise = rng.standard_normal((p, n_len))
        self.files = {}
        for label, records in (("signal", signal), ("noise", noise)):
            # The CSV text fixes the values; the .npy holds the same doubles.
            text = "\n".join(",".join(f"{v: .10e}" for v in row) for row in records) + "\n"
            csv_path = work / f"{label}.csv"
            csv_path.write_text(text, encoding="utf-8")
            values = np.loadtxt(csv_path, delimiter=",", ndmin=2)
            npy_path = work / f"{label}.npy"
            np.save(npy_path, values)
            self.files[label] = (values, npy_path, csv_path)
        x, z = self.files["signal"][0], self.files["noise"][0]
        self.shape = {"p": p, "T": t_len, "n": n_len}
        self.top = self._pencil_top(x @ x.T / t_len, z @ z.T / n_len)

    @staticmethod
    def _pencil_top(s1, s2, count: int = 10):
        """Reference: top eigenvalues of the pencil via Cholesky whitening."""
        chol = np.linalg.cholesky(s2)
        half = np.linalg.solve(chol, s1)
        whitened = np.linalg.solve(chol, half.T)
        return np.sort(np.linalg.eigvalsh((whitened + whitened.T) / 2.0))[::-1][:count]

    def unit(self, index: int, out_dir: Path) -> list:
        calls = []
        for fmt, position in (("npy", 1), ("csv", 2)):
            target = out_dir / f"detect-{fmt}"
            argv = [
                "detect", "--signal", str(self.files["signal"][position]),
                "--noise", str(self.files["noise"][position]), "--out-dir", str(target),
            ]
            calls.append(Invocation(argv, target, 1, self.check_detect))
        target = out_dir / "law"
        argv = ["law", "0.2", "0.5", "--points", str(LAW_POINTS), "--out-dir", str(target)]
        calls.append(Invocation(argv, target, 1, self.check_law))
        return calls

    def check_detect(self, out_dir: Path, stdout: str) -> list:
        errors = []
        result = json.loads(stdout)
        if json.loads((out_dir / "result.json").read_text(encoding="utf-8")) != result:
            errors.append("result.json differs from the printed result")
        if abs(result["b"] - B_UPPER) > 1e-12:
            errors.append(f"b is {result['b']!r}, not {B_UPPER!r}")
        if {key: result[key] for key in self.shape} != self.shape:
            errors.append(f"reported shape differs from {self.shape}")
        p = self.shape["p"]
        d_n = math.log(math.log(p)) / p ** (2.0 / 3.0)
        if abs(result["d_n"] - d_n) > 1e-12 or abs(result["threshold"] - B_UPPER - d_n) > 1e-12:
            errors.append(f"d_n {result['d_n']!r} or threshold {result['threshold']!r} is off")
        top = np.array(result["top_eigenvalues"])
        if top.shape != self.top.shape or not np.allclose(top, self.top, rtol=1e-8, atol=0.0):
            errors.append("top eigenvalues differ from the reference pencil solve")
        # The three planted signals sit near 45, 35 and 25, far above the
        # edge.  The top noise eigenvalue crosses the default threshold at
        # 3 of the seeds 0-119 (the false alarms that test_10 fails on), so
        # k_hat == 3 cannot hold at every seed; the count must match the
        # reported spectrum instead.
        if result["k_hat"] < 3 or result["k_hat"] != int(np.sum(top >= result["threshold"])):
            errors.append(f"k_hat {result['k_hat']} is below 3 or disagrees with the spectrum")
        return errors

    def check_law(self, out_dir: Path, _stdout: str) -> list:
        errors = []
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        # README: edges (0.2032..., 12.5967...), critical interval (0.4508..., 3.5491...).
        for key, low, high in (
            ("b1", 0.2032, 0.2033),
            ("critical_low", 0.4508, 0.4509),
            ("critical_high", 3.5491, 3.5492),
        ):
            if not low <= summary[key] < high:
                errors.append(f"{key} is {summary[key]}, outside [{low}, {high})")
        if abs(summary["b"] - B_UPPER) > 1e-12:
            errors.append(f"b is {summary['b']!r}, not {B_UPPER!r}")
        if summary["mass_at_zero"] != 0.0:
            errors.append(f"mass_at_zero is {summary['mass_at_zero']}, not 0")
        header, table = _read_numeric_csv(out_dir / "law.csv")
        if header != ["x", "density"] or table.shape != (LAW_POINTS, 2):
            return errors + [f"law.csv has header {header} and shape {table.shape}"]
        x, dens = table[:, 0], table[:, 1]
        if not (np.all(np.isfinite(dens)) and np.all(dens >= 0.0)):
            errors.append("law.csv has a negative or non-finite density")
        mass = float(np.sum((dens[1:] + dens[:-1]) * np.diff(x)) / 2.0)
        if abs(mass - 1.0) > 0.01:
            errors.append(f"law.csv density integrates to {mass}, not 1")
        return errors


WORKLOADS = {
    "clt-gauss": lambda: CltStudy("gaussian", None),
    "clt-rademacher": lambda: CltStudy("rademacher", ROTATED_BASIS),
    "detect-ladder": DetectLadder,
    "cli-oneshot": CliOneshot,
}
