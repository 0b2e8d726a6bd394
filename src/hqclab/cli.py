"""Command-line driver: hqc-lab <experiment> [--config PATH] [--out PATH] ...

Experiments: converge-1d, stochastic-2d, dynamics-1d, equivalence.
Writes a CSV table (17 significant digits for floats) and prints a summary
with fitted slopes.  Exit codes: 0 success, 1 solver failure, 2 config error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .experiments import (
    CONVERGE_1D_SCHEMA,
    DYNAMICS_1D_SCHEMA,
    EQUIVALENCE_SCHEMA,
    STOCHASTIC_2D_SCHEMA,
    ConfigError,
    ExperimentResult,
    run_converge_1d,
    run_dynamics_1d,
    run_equivalence,
    run_stochastic_2d,
)

#: experiment -> (runner, config schema)
EXPERIMENTS = {
    "converge-1d": (run_converge_1d, CONVERGE_1D_SCHEMA),
    "stochastic-2d": (run_stochastic_2d, STOCHASTIC_2D_SCHEMA),
    "dynamics-1d": (run_dynamics_1d, DYNAMICS_1D_SCHEMA),
    "equivalence": (run_equivalence, EQUIVALENCE_SCHEMA),
}


def parse_config_file(path: str) -> dict:
    """Flat `key = value` lines; '#' starts a comment; blank lines ignored."""
    cfg = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in cfg:
            raise ConfigError(f"{path}:{ln}: duplicate key {key!r}")
        cfg[key] = value.strip()
    return cfg


def format_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_csv(path: str, result: ExperimentResult) -> None:
    lines = [",".join(result.columns)]
    for row in result.rows:
        lines.append(",".join(format_value(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="hqc-lab", description=__doc__)
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--out", help="CSV output path (default <experiment>.csv)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--threads", type=int, choices=[1],
                        help="accepted for compatibility: rows run in one thread")
    args = parser.parse_args(argv)

    out = args.out or f"{args.experiment}.csv"
    try:
        if Path(out).is_dir() or not Path(out).parent.is_dir():
            raise ConfigError(f"cannot write {out}: it is not a file name in an existing directory")
        cfg = parse_config_file(args.config) if args.config else {}
        run, schema = EXPERIMENTS[args.experiment]
        if args.seed is not None:
            if "seed" not in schema:
                raise ConfigError(f"--seed: the {args.experiment} experiment has no seed")
            cfg["seed"] = str(args.seed)
        result = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    write_csv(out, result)
    print(f"{args.experiment}: {len(result.rows)} rows -> {out}")
    for key, value in result.summary.items():
        print(f"  {key} = {format_value(value)}")
    if result.failures:
        print(f"  FAILED rows: {result.failures}", file=sys.stderr)
        return 1
    print("  status: PASS" if _summary_ok(args.experiment, result) else "  status: CHECK SLOPES")
    return 0


def _summary_ok(name: str, result: ExperimentResult) -> bool:
    s = result.summary
    try:
        if name == "converge-1d":
            return 0.85 <= s["slope_uhc_h1"] <= 1.15 and 1.8 <= s["slope_uh_l2"] <= 2.2
        if name == "stochastic-2d":
            return 1.6 <= s.get("slope_hqc_full", float("nan")) <= 2.4
        if name == "dynamics-1d":
            return 1.6 <= s["slope_linf_l2"] <= 2.4 and 0.7 <= s["slope_l2_h1"] <= 1.3
        if name == "equivalence":
            return bool(s["all_within_tolerance"])
    except (KeyError, TypeError):
        return False
    return False


if __name__ == "__main__":
    sys.exit(main())
