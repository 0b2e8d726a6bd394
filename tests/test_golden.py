"""Every default study writes the CSV it wrote before, byte for byte.

The hashes are the sha256 prefixes of each study's CSV at its default config
(``configs/``), as CHANGES.md records them.  A change that keeps the solvers'
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


@pytest.mark.skipif((np.__version__, scipy.__version__) != VERSIONS,
                    reason=f"the hashes hold for numpy {VERSIONS[0]} and scipy {VERSIONS[1]}, "
                           f"not numpy {np.__version__} and scipy {scipy.__version__}")
@pytest.mark.parametrize("study", list(HASHES))
def test_default_study_writes_its_recorded_csv(study, tmp_path):
    out = tmp_path / f"{study}.csv"
    assert main([study, "--config", str(CONFIGS / f"{study}.cfg"), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:12] == HASHES[study]
