"""Every default study writes the CSV it wrote before, byte for byte, and so
does the equivalence study at four times its default trial counts.

The hashes are the sha256 prefixes of each study's CSV at its default config
(``configs/``), and of the scaled equivalence study at three seeds, as
CHANGES.md records them.  A change that keeps the solvers'
arithmetic keeps them; one that reorders a float sum may not, and must say so
and update them.  They were taken with the numpy and scipy versions below,
whose kernels may round otherwise in other versions, so other versions skip.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest
import scipy

from hqclab.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
#: the numpy and scipy versions the hashes hold for
VERSIONS = ("2.4.6", "1.17.1")
#: per study: the first 12 hex digits of the sha256 of its default CSV
HASHES = {
    "converge-1d": "1e4879fb2ee4",
    "dynamics-1d": "e54fd5909bd6",
    "equivalence": "a2fe49ea1c89",
    "stochastic-2d": "71b24daa44cf",
}

#: per seed: the same for the equivalence study at four times the default
#: trial counts (the benchmark's equivalence-x4 workload at that seed)
X4_HASHES = {0: "628640b64318", 5: "2301738d3f22", 107: "4e24aec6330a"}

recorded_versions = pytest.mark.skipif(
    (np.__version__, scipy.__version__) != VERSIONS,
    reason=f"the hashes hold for numpy {VERSIONS[0]} and scipy {VERSIONS[1]}, "
           f"not numpy {np.__version__} and scipy {scipy.__version__}")


@recorded_versions
@pytest.mark.parametrize("study", list(HASHES))
def test_default_study_writes_its_recorded_csv(study, tmp_path):
    out = tmp_path / f"{study}.csv"
    assert main([study, "--config", str(CONFIGS / f"{study}.cfg"), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:12] == HASHES[study]


@recorded_versions
@pytest.mark.parametrize("seed", list(X4_HASHES))
def test_equivalence_at_four_times_its_trials_writes_its_recorded_csv(seed, tmp_path):
    config, out = tmp_path / "equivalence-x4.cfg", tmp_path / "equivalence-x4.csv"
    config.write_text(f"seed = {seed}\ntrials_spring = 144\ntrials_lj = 60\ntrials_simple = 16\n")
    assert main(["equivalence", "--config", str(config), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:12] == X4_HASHES[seed]
