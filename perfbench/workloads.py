"""The three benchmark workloads: how each builds its `hqc-lab` arguments and
which science outputs a run must reproduce to count as correct.

Each workload drives the layers of the package differently (see README.md):

* ``stochastic-2d``  quadratic 2D random network: placement, P1 assembly,
  sparse factorization; the memory workload (about 4.2 GB peak).
* ``dynamics-1d``    nonlinear LJ chain dynamics: bond-law evaluation, Verlet,
  reconstruction, 4.1k micro Newton calls that all stop at their first
  residual check, so it builds no ``GaugeFixedOperator`` (measured: 0 calls).
* ``equivalence-x4`` hundreds of tiny cell, shift and micro solves: Python
  per-call overhead; the only workload that exercises ``mqc`` and ``homog``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: the line `hqc-lab` prints when its summary is inside the acceptance bands
#: (hqclab.cli._summary_ok, the bands of tests/test_acceptance.py)
STATUS_PASS = "  status: PASS"
#: dynamics-1d energy drift bound of tests/test_acceptance.py, which the cli does not apply
MAX_DRIFT = 1e-4

#: trial counts of equivalence-x4: four times those of configs/equivalence.cfg
EQUIVALENCE_SCALE = 4
EQUIVALENCE_TRIAL_KEYS = ("trials_spring", "trials_lj", "trials_simple")


def _check_status(stdout: str, summary: dict) -> list[str]:
    if STATUS_PASS in stdout.splitlines():
        return []
    status = next((line.strip() for line in stdout.splitlines() if line.startswith("  status:")),
                  "no status line")
    return [f"hqc-lab printed {status!r}, not {STATUS_PASS.strip()!r}"]


def _check_dynamics(stdout: str, summary: dict) -> list[str]:
    misses = _check_status(stdout, summary)
    drift = summary.get("ref_energy_drift")
    if not isinstance(drift, float) or not drift <= MAX_DRIFT:
        misses.append(f"ref_energy_drift = {drift} above {MAX_DRIFT}")
    return misses


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str              # hqc-lab experiment name
    config: str                  # config file under configs/
    rows: int                    # CSV rows one study writes
    check: Callable[[str, dict], list[str]]  # (stdout, summary) -> science misses

    def build_argv(self, root: Path, workdir: Path) -> tuple[list[str], Path]:
        """The `hqc-lab` arguments of one study and the CSV path it writes."""
        config = root / "configs" / self.config
        if self.name == "equivalence-x4":
            config = _scaled_equivalence_config(config, workdir / "equivalence-x4.cfg")
        csv = workdir / f"{self.name}.csv"
        return [self.experiment, "--config", str(config), "--out", str(csv), "--threads", "1"], csv


def _scaled_equivalence_config(src: Path, dst: Path) -> Path:
    lines = []
    for raw in src.read_text().splitlines():
        key = raw.split("#", 1)[0].split("=", 1)[0].strip()
        if key in EQUIVALENCE_TRIAL_KEYS:
            value = int(raw.split("#", 1)[0].split("=", 1)[1])
            raw = f"{key} = {EQUIVALENCE_SCALE * value}"
        lines.append(raw)
    dst.write_text("\n".join(lines) + "\n")
    return dst


# No workload takes the bench seed: every study runs its config's own seed.
# * stochastic-2d: the acceptance band of slope_hqc_full holds for the
#   config's network (seed 1) but not for every network: seeds 4, 7 and 8
#   give 1.51, 2.69 and 3.28.
# * dynamics-1d: the config has no seed key; `--seed N` exits 2 ("unknown
#   config keys").
# * equivalence-x4: with seed 107, trial 146 (LJ) fails: its micro Newton
#   stalls at residual 4.09e-12 above the 1e-12 * (1 + |F|) threshold.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("stochastic-2d", "stochastic-2d", "stochastic-2d.cfg", 12, _check_status),
        Workload("dynamics-1d", "dynamics-1d", "dynamics-1d.cfg", 4, _check_dynamics),
        Workload("equivalence-x4", "equivalence", "equivalence.cfg", 220, _check_status),
    )
}

_SUMMARY_LINE = re.compile(r"^  (\w+) = (.*)$")


def parse_summary(stdout: str) -> dict:
    """Summary values from the `  key = value` lines `hqc-lab` prints."""
    out: dict = {}
    for line in stdout.splitlines():
        match = _SUMMARY_LINE.match(line)
        if not match:
            continue
        key, text = match.groups()
        if text in ("True", "False"):
            out[key] = text == "True"
            continue
        try:
            out[key] = float(text)
        except ValueError:
            out[key] = text
    return out


def csv_statuses(path: Path) -> list[str]:
    """The `status` column of a study's CSV (last column of every data row)."""
    lines = path.read_text().splitlines()
    if not lines or lines[0].split(",")[-1] != "status":
        raise ValueError(f"{path.name}: no status column")
    return [line.rsplit(",", 1)[-1] for line in lines[1:]]
