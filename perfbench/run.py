"""hqclab benchmark: time `hqc-lab` studies end to end and, traced, per layer.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every study is a fresh Python process
(perfbench/study.py) that imports hqclab from ``src/`` and calls
``hqclab.cli.main`` once with ``--threads 1``; one process runs at a time,
because ``stochastic-2d`` alone peaks at about 4.2 GB.  Studies repeat until
``--seconds`` have passed (at least two).  Every workload runs its config's own
seed (see workloads.py), so ``--seed`` only labels the run.

``--trace 0`` reports the end-to-end metrics ``run_s``, ``setup_s`` and
``peak_rss_mb`` as medians over the run; ``--trace 1`` alternates untraced
and traced studies and reports the per-layer metrics of the traced ones
(medians) plus ``trace.overhead``.  Every study's science outputs are checked;
the last stdout line is the JSON result, and ``fail_ratio`` is its
``failed`` / ``attempted`` (CSV rows).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import EXACT, METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: timed processes per run that only set up; the studies add their own set-up times
SETUP_REPS = 4
#: studies per run at least: two untraced ones, or one untraced/traced pair
MIN_STUDIES = 2
#: a workload's studies must end within --seconds plus this margin, which
#: leaves room for the last study to start just before --seconds have passed
DEADLINE_MARGIN_S = 150.0


def percentile_line(values: list[float]) -> str:
    """Median plus the highest percentile that has at least ten samples above it."""
    n = len(values)
    ordered = sorted(values)
    k = n - 10  # 1-based rank with ten samples beyond it
    tail = f"p{100 * k // n} {ordered[k - 1]:.6g}" if k >= 1 else "no percentile has 10 samples beyond it"
    return f"median of n={n}; {tail}"


def environment() -> dict:
    nproc = len(os.sched_getaffinity(0))
    commit = "unknown"
    if (ROOT / ".git").exists():  # else git would search the directories above the checkout
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": nproc,
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "blas_threads": nproc,
        "hqclab_threads": 1,
        "commit": commit,
    }


class Runner:
    """Starts one study process at a time inside a scratch directory of the checkout."""

    def __init__(self, workload: str, scratch: Path, deadline: float, env: dict) -> None:
        self.workload = workload
        self.scratch = scratch
        self.deadline = deadline
        self.count = 0
        cap = str(env["blas_threads"])
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=cap, OMP_NUM_THREADS=cap, MKL_NUM_THREADS=cap)

    def study(self, *flags: str) -> dict:
        self.count += 1
        workdir = self.scratch / f"study-{self.count}"
        workdir.mkdir()
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("run deadline passed before the study could start")
        t_start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "study.py"), self.workload, str(workdir), repr(t_start), *flags],
            cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"study process exited {proc.returncode}: {proc.stderr[-2000:]}")
        return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict,
                 deadline: float) -> tuple[dict, list[str]]:
    """Run one workload; returns (result, report lines)."""
    workload = WORKLOADS[name]
    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch_root))
    runner = Runner(name, scratch, deadline, env)
    lines = [f"workload {name}  seed {seed} (not passed: inputs are fixed)  "
             f"trace {int(trace)}  seconds {seconds:g}"]
    studies: list[dict] = []
    setups: list[float] = []
    errors: list[str] = []
    crashed = 0
    try:
        # untimed warm-up: refills the page cache that a previous run's large
        # study may have evicted, and compiles the bytecode of a fresh checkout
        warm = runner.study("--setup-only")
        lines.append("  versions: " + json.dumps({k: warm[k] for k in ("python", "numpy", "scipy")}))
        for _ in range(SETUP_REPS):
            setups.append(runner.study("--setup-only")["setup_s"])
        t0 = time.monotonic()
        while len(studies) < MIN_STUDIES or time.monotonic() - t0 < seconds:
            studies.append(runner.study())
            if trace:
                studies.append(runner.study("--trace"))
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        errors.append(f"{type(exc).__name__}: {exc}")
        crashed = workload.rows
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if not any(scratch_root.iterdir()):
            scratch_root.rmdir()

    setups += [s["setup_s"] for s in studies]
    plain = [s for s in studies if not s["trace"]]
    traced = [s for s in studies if s["trace"]]
    for i, s in enumerate(studies, start=1):
        summary = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                           for k, v in s["summary"].items())
        lines.append(
            f"  study {i}{' traced' if s['trace'] else ''}: run_s={s['run_s']:.4f} "
            f"setup_s={s['setup_s']:.4f} cpu_util={s['cpu_util']:.3f} peak_rss_mb={s['peak_rss_mb']:.1f} "
            f"failed={s['failed']}/{s['rows']} exit={s['exit_code']} "
            f"wrapped={s['wrapped_bindings']} csv={str(s['csv_sha256'])[:12]} {summary}")
        lines += [f"    science miss: {m}" for m in s["misses"]]
    digests = {s["csv_sha256"] for s in studies}
    identical = len(studies) > 1 and len(digests) == 1 and None not in digests
    if len(studies) > 1 and not identical:
        errors.append("repeated studies wrote different CSVs")
    attempted = sum(s["rows"] for s in studies) + crashed
    failed = sum(s["failed"] for s in studies) + crashed
    correct = not errors and failed == 0 and bool(plain)
    lines += [f"  error: {e}" for e in errors]

    metrics: dict[str, dict] = {}
    if plain and not trace:
        run_s = [s["run_s"] for s in plain]
        rss = [s["peak_rss_mb"] for s in plain]
        metrics = {
            "run_s": {"value": statistics.median(run_s), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MiB"},
        }
        lines.append(f"  run_s = {metrics['run_s']['value']:.4f} s ({percentile_line(run_s)})")
        lines.append(f"  setup_s = {metrics['setup_s']['value']:.4f} s ({percentile_line(setups)})")
        lines.append(f"  peak_rss_mb = {metrics['peak_rss_mb']['value']:.1f} MiB ({percentile_line(rss)})")
    if plain and traced:
        layers = {k: statistics.median(s["layers"][k] for s in traced) for k in traced[0]["layers"]}
        layers["experiments.cpu_util"] = statistics.median(s["cpu_util"] for s in plain)
        layers["trace.overhead"] = (statistics.median(s["run_s"] for s in traced)
                                    / statistics.median(s["run_s"] for s in plain) - 1.0)
        metrics = {k: {"value": layers[k], "unit": unit} for k, unit in METRICS.items()}
        repeat = all(s["layers"][k] == traced[0]["layers"][k] for s in traced for k in EXACT)
        lines += [f"  {k} = {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
        lines.append(f"  exact counters repeat across traced studies: "
                     f"{repeat if len(traced) > 1 else 'n/a (one traced study)'}")
    lines.append(f"  fail_ratio = {failed / attempted:.6g} 1 ({failed} of {attempted} rows failed)")
    lines.append(f"  csv byte-identical across studies: "
                 f"{identical if len(studies) > 1 else 'n/a (one study)'}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills its study process and removes its scratch files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    missing = [p for p in ("src/hqclab/cli.py", "configs") if not (ROOT / p).exists()]
    if missing:
        print(f"error: {ROOT} is not an hqclab checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2

    env = environment()
    print("env: " + json.dumps(env))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        deadline = time.monotonic() + args.seconds + DEADLINE_MARGIN_S
        results[name], lines = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                            env, deadline)
        print("\n".join(lines), flush=True)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
