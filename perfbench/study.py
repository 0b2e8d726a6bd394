"""One benchmark study in a fresh Python process.

    python3 perfbench/study.py WORKLOAD WORKDIR T0 [--trace | --setup-only]

``T0`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` spans interpreter start, the numpy/scipy/hqclab import
and building the workload's inputs.  The study then calls
``hqclab.cli.main`` once (``run_s`` ends when the CSV is written and checked)
and prints one JSON record as its last stdout line.
"""

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402
from workloads import WORKLOADS, csv_statuses, parse_summary  # noqa: E402


def run_study(workload, argv: list[str], csv: Path, trace: bool) -> dict:
    """Run ``hqc-lab argv`` once and check its outputs; optionally traced."""
    from hqclab import cli

    spans = tracer.Tracer() if trace else None
    if spans is not None:
        spans.install()
    try:
        out, err = io.StringIO(), io.StringIO()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        cli_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
        record = {"exit_code": code, "cli_s": cli_s, "cpu_util": cpu_s / cli_s}
        record.update(check_outputs(workload, code, out.getvalue(), csv))
        record["run_s"] = time.perf_counter() - t0
        record["wrapped_bindings"] = len(tracer.wrapped_bindings())
        if spans is not None:
            record["layers"] = spans.metrics(record["run_s"])
        if err.getvalue():
            record["stderr"] = err.getvalue()[-2000:]
    finally:
        if spans is not None:
            spans.uninstall()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return record


def check_outputs(workload, code: int, stdout: str, csv: Path) -> dict:
    """Science gate: exit code 0, every expected row `ok`, `status: PASS`
    printed (summary in the acceptance bands) and the workload's own checks.

    Every row of the study counts as failed when the exit code or the science
    check fails."""
    summary = parse_summary(stdout)
    misses = [] if code == 0 else [f"exit code {code}"]
    statuses, digest = [], None
    if csv.exists():
        statuses = csv_statuses(csv)
        digest = hashlib.sha256(csv.read_bytes()).hexdigest()
    if len(statuses) != workload.rows:
        misses.append(f"{len(statuses)} CSV rows, expected {workload.rows}")
    misses += workload.check(stdout, summary)
    failed = workload.rows if misses else sum(s != "ok" for s in statuses)
    return {"rows": workload.rows, "failed": failed, "misses": misses,
            "summary": summary, "csv_sha256": digest}


def main(args: list[str]) -> int:
    name, workdir, t_start = args[0], Path(args[1]), float(args[2])
    import numpy
    import scipy

    import hqclab.cli  # noqa: F401  (the import is part of set-up)

    workload = WORKLOADS[name]
    argv, csv = workload.build_argv(ROOT, workdir)
    setup_s = time.monotonic() - t_start
    record = {"setup_s": setup_s, "numpy": numpy.__version__, "scipy": scipy.__version__,
              "python": sys.version.split()[0]}
    if "--setup-only" not in args:
        record.update(run_study(workload, argv, csv, trace="--trace" in args))
        record["trace"] = "--trace" in args
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
