"""Benchmark of the spikedfisher command line, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from the root of a source checkout.  It makes the workload's inputs
from the seed, then runs `spikedfisher.cli.main` from `src/` in one child
process at a time (a closed loop with a single client) until S seconds
are used, checks every output, and prints a report.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1.  A traced run alternates untraced and
traced units of work, so it also measures the cost of tracing.  Full
reports and spans go to perfbench/results/.

--smoke runs every workload at tiny sizes, traced and untraced, and exits
non-zero if a metric named in BENCHMARK.json is missing or a check fails.
That includes clt-rademacher and cli-oneshot, which BENCHMARK.json leaves
out but which still run by name.  See perfbench/README.md for the metrics
and workloads.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from layers import LayerTotals
from workloads import WORKLOADS

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_UNITS = 2
CHILD_TIMEOUT_S = 120.0
INPUT_FLAGS = ("--config", "--signal", "--noise")


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


class Runner:
    """Spawns children from one checkout with the program's own thread defaults."""

    def __init__(self, root: Path, work: Path) -> None:
        self.root = root
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
        self.env["PYTHONPATH"] = str(root / "src")
        self.package = root / "src" / "spikedfisher"
        self.serial = 0

    def spawn(self, mode: str, argv: list) -> dict:
        """Run one child to its end; return its timings, usage and report."""
        self.serial += 1
        stem = self.work / f"child{self.serial}"
        report_path = stem.with_suffix(".report.json")
        cmd = [sys.executable, str(self.root / "perfbench" / "child.py"), str(report_path), mode, *argv]
        with open(stem.with_suffix(".out"), "wb") as out, open(stem.with_suffix(".err"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.root)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        child = {
            "mode": mode,
            "argv": argv,
            "code": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "nivcsw": usage.ru_nivcsw,
            "stdout": stem.with_suffix(".out").read_text(encoding="utf-8", errors="replace"),
            "stderr": stem.with_suffix(".err").read_text(encoding="utf-8", errors="replace"),
            "errors": [],
        }
        if report_path.exists():
            child.update(json.loads(report_path.read_text(encoding="utf-8")))
            if Path(child["package"]).resolve().parent != self.package.resolve():
                child["errors"].append(f"imported {child['package']}, not the checkout's src/")
        else:
            child["errors"].append("child wrote no report")
        if child["code"] != 0:
            child["errors"].append(f"exit code {child['code']}: {child['stderr'].strip()[-300:]}")
        return child

    def invoke(self, mode: str, invocation) -> dict:
        """Run one CLI invocation, check its outputs, then delete them."""
        child = self.spawn(mode, invocation.argv)
        child["ops"] = invocation.ops
        child["bytes_read"] = sum(
            Path(invocation.argv[i + 1]).stat().st_size
            for i, arg in enumerate(invocation.argv[:-1])
            if arg in INPUT_FLAGS
        )
        child["bytes_written"] = _tree_bytes(invocation.out_dir) if invocation.out_dir.exists() else 0
        if not child["errors"]:
            try:
                child["errors"] += invocation.check(invocation.out_dir, child["stdout"])
            except (OSError, ValueError, KeyError, IndexError) as exc:
                child["errors"].append(f"output check could not read the outputs: {exc!r}")
        shutil.rmtree(invocation.out_dir, ignore_errors=True)
        return child


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(root: Path, versions: dict) -> dict:
    return {
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
        "blas_env_found": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def end_to_end_metrics(units: list, children: list) -> tuple[dict, dict]:
    """Untraced metrics and the sample count behind each.

    A unit's time is the sum over its positions (one per command in the
    unit) of the median time at that position, so that one slow call of
    one command does not move the figure.
    """
    imports = [c["import_s"] for c in children]
    positions = list(zip(*units))
    ops = sum(c["ops"] for c in units[0])
    main_s = sum(statistics.median(c["main_s"] for c in calls) for calls in positions)
    metrics = {
        "setup_s": statistics.median(imports),
        "study_s": sum(statistics.median(c["wall_s"] for c in calls) for calls in positions),
        "replicates_per_s": ops / main_s,
        "peak_rss_mb": max(c["rss_mb"] for c in children),
    }
    samples = {
        "setup_s": f"median of {len(imports)} imports in fresh children",
        "study_s": f"{len(units)} units, spawn to exit",
        "replicates_per_s": f"{len(units)} units of {ops} operations",
        "peak_rss_mb": f"max over {len(children)} invocations",
    }
    return metrics, samples


def per_layer_metrics(children: list) -> dict:
    traced = [c for c in children if c["mode"] == "trace"]
    plain = [c for c in children if c["mode"] == "plain"]
    totals = LayerTotals()
    for child in traced:
        totals.add(child["spans"])
    ops = sum(c["ops"] for c in traced)
    main_s = sum(c["main_s"] for c in traced)
    metrics = totals.metrics(ops, main_s)
    plain_ops = sum(c["ops"] for c in plain)
    metrics["process.cpu_per_wall"] = sum(c["cpu_s"] for c in plain) / sum(c["wall_s"] for c in plain)
    metrics["process.nivcsw"] = sum(c["nivcsw"] for c in plain) / plain_ops
    metrics["cli.bytes_read"] = sum(c["bytes_read"] for c in traced) / ops
    metrics["cli.bytes_written"] = sum(c["bytes_written"] for c in traced) / ops
    plain_per_op = sum(c["main_s"] for c in plain) / plain_ops
    metrics["trace.overhead_pct"] = 100.0 * (main_s / ops / plain_per_op - 1.0)
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool, root: Path) -> dict:
    if not (root / "src" / "spikedfisher" / "cli.py").is_file():
        raise BenchmarkError(f"no src/spikedfisher/cli.py under {root}; run from a source checkout")
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    workload = WORKLOADS[name]()
    tag = f"{'smoke-' if smoke else ''}{name}-seed{seed}-trace{int(trace)}"
    work = root / "perfbench" / "work" / f"{tag}-{os.getpid()}"
    results = root / "perfbench" / "results"
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(root, work)
        workload.prepare(work, seed, smoke)
        # The warm-up child fills the file cache and compiles bytecode.
        warm = runner.spawn("env", [])
        if warm["errors"]:
            raise BenchmarkError(f"the package does not import: {warm['errors']}")
        env = environment(root, warm["versions"])

        units, children = [], []
        started = time.perf_counter()
        while len(units) < MIN_UNITS or (
            time.perf_counter() - started
            + statistics.median(sum(c["wall_s"] for c in u) for u in units)
            <= seconds
        ):
            mode = "trace" if trace and len(units) % 2 else "plain"
            out = work / f"unit{len(units)}"
            unit = [runner.invoke(mode, inv) for inv in workload.unit(len(units), out)]
            units.append(unit)
            children += unit
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [c for c in children if c["errors"]]
    good_units = [u for u in units if not any(c["errors"] for c in u)]
    good = [c for u in good_units for c in u]
    metrics, samples = {}, {}
    if trace and {"plain", "trace"} <= {c["mode"] for c in good}:
        metrics = per_layer_metrics(good)
    elif good and not trace:
        metrics, samples = end_to_end_metrics(good_units, good)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    errors = [e for c in failed for e in c["errors"]]
    if trace and metrics and abs(metrics["trace.coverage"] - 1.0) > 0.10:
        errors.append(f"self times cover {metrics['trace.coverage']:.3f} of cli.main wall")
    correct = not errors and not missing
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "environment": env,
        "error_rate": len(failed) / len(children),
        "attempted": len(children),
        "failed": len(failed),
        "errors": errors,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"], "samples": samples.get(m["name"])}
            for m in wanted
            if m["name"] in metrics
        },
        "missing": missing,
        "correct": correct,
        "invocations": [
            {k: c.get(k) for k in ("mode", "argv", "code", "wall_s", "import_s", "main_s",
                                   "cpu_s", "rss_mb", "nivcsw", "ops", "errors")}
            for c in children
        ],
    }
    (results / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if trace:
        with open(results / f"{tag}-spans.jsonl", "w", encoding="utf-8") as fh:
            keys = ("id", "parent", "name", "start_ns", "end_ns", "thread", "ok", "count")
            for index, child in enumerate(c for c in children if c["mode"] == "trace"):
                for span in child.get("spans", []):
                    fh.write(json.dumps({"invocation": index, **dict(zip(keys, span))}) + "\n")
    return report


def print_report(report: dict) -> None:
    print(
        f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
        f"invocations {report['attempted']}  failed {report['failed']}"
    )
    for name, entry in report["metrics"].items():
        note = f"  ({entry['samples']})" if entry["samples"] else ""
        print(f"  {name:42s} {entry['value']:.6g} {entry['unit']}{note}")
    print(f"  {'error_rate':42s} {report['error_rate']:.6g} ratio  "
          f"({report['failed']} of {report['attempted']} invocations)")
    for error in report["errors"][:10]:
        print(f"  error: {error}")
    for name in report["missing"]:
        print(f"  missing metric: {name}")
    print("environment: " + json.dumps(report["environment"], sort_keys=True))


def smoke(root: Path) -> int:
    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            report = run(name, 1, 1.0, trace, True, root)
            print_report(report)
            ok = ok and report["correct"]
    print("smoke: all metrics present, all checks passed" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload")
    args = parser.parse_args()
    root = Path.cwd()
    try:
        if args.smoke:
            return smoke(root)
        if args.workload is None:
            parser.error("--workload is required")
        report = run(args.workload, args.seed, args.seconds, bool(args.trace), False, root)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if report["missing"]:
        print(f"benchmark error: metrics not computed: {report['missing']}", file=sys.stderr)
        return 1
    print_report(report)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
