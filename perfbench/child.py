"""One benchmark child: import spikedfisher.cli, optionally trace it, run cli.main.

    python3 perfbench/child.py REPORT MODE [CLI_ARGS...]

MODE is one of
    env    import only, and also record library versions;
    plain  import, then run cli.main(CLI_ARGS) untraced;
    trace  import, wrap the package's public functions, run cli.main(CLI_ARGS).

The child writes a JSON report to REPORT (import and main wall times, the
exit code, the imported package path, and in trace mode every span) and
exits with cli.main's return code.  The program itself is not edited: the
spans come from wrappers installed from outside, after the import is timed.
"""

import json
import sys
import time


def _versions() -> dict:
    import numpy
    import scipy

    def blas(config) -> str:
        dep = config["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
    }


def main() -> int:
    report_path, mode, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    start = time.perf_counter()
    import spikedfisher.cli as cli

    imported = time.perf_counter()
    report = {"import_s": imported - start, "package": cli.__file__}
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    code = 0
    if mode == "env":
        report["versions"] = _versions()
    else:
        began = time.perf_counter()
        try:
            code = cli.main(cli_args)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        report["main_s"] = time.perf_counter() - began
    report["code"] = code
    if tracer is not None:
        report["spans"] = tracer.spans
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
