"""Multiscale workbench: homogenized quasicontinuum for multilattice crystals
and random bond networks, with multilattice-QC and continuum-homogenization
companions for cross-validation."""

from .lattice import (
    LatticeField,
    Multilattice,
    chain_lattice,
    square_lattice,
)
from .potential import (
    LennardJones1D,
    LennardJonesParams,
    LinearSpring1D,
    RandomBond2D,
    make_dynamics_model,
    make_stochastic_model,
)
from .homog import HomogenizedDensity, harmonic_mean, solve_cell_problem
from .hqc import HQCOperator, solve_hqc, reconstruct
from .mqc import equivalence_report, solve_shift_vectors

__all__ = [
    "LatticeField",
    "Multilattice",
    "chain_lattice",
    "square_lattice",
    "LinearSpring1D",
    "LennardJones1D",
    "LennardJonesParams",
    "RandomBond2D",
    "make_dynamics_model",
    "make_stochastic_model",
    "HomogenizedDensity",
    "harmonic_mean",
    "solve_cell_problem",
    "HQCOperator",
    "solve_hqc",
    "reconstruct",
    "equivalence_report",
    "solve_shift_vectors",
]

__version__ = "0.1.0"
