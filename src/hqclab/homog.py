"""Continuum homogenization: cell problem, homogenized density, and its FEM.

The corrector chi(F; .) lives on one lattice period (m sites, zero mean) and
solves

    < sum_r V'_r(F R + D_y chi), D_y sigma > = 0   for all zero-mean sigma,

with undivided differences D_y chi(y) = chi(y + r) - chi(y) on the periodic
cell.  The homogenized energy density and stress follow by averaging:

    Phi0(F)  = < V(F R + D_y chi(F)) >,
    dPhi0(F) = < sum_r V'_r(F R + D_y chi(F)) r^T >,

the latter needing no corrector sensitivity (envelope property).  The tangent
d2Phi0 is the condensed tangent of the HQC micro layer on the cell system:
``HomogenizedDensity.at`` is an ``hqc.DensityState`` of that system, which
solves the correctors of a stack of gradients as one stack (of a
``potential.ModelStack``, one material per gradient), and the homogenized
FEM is ``hqc.macro_newton`` over the density.
"""

from __future__ import annotations

import numpy as np

from .hqc import MICRO_TOL, DensityState
from .lattice import unit_cell
from .network import BondSystem, compile_system, newton_zero_mean
from .potential import InteractionModel


def cell_system(model: InteractionModel) -> BondSystem:
    """The model's cell system, compiled once per model and shared with HQC
    period sampling (``compile_system`` keeps it)."""
    return compile_system(unit_cell(model.d, model.shifts()), model)


def solve_cell_problem(model: InteractionModel, F) -> np.ndarray:
    """Zero-mean corrector chi(F), shape (m, d), reached from the zero guess.

    Residual tolerance is MICRO_TOL * (1 + ||F||).
    """
    F = np.asarray(F, dtype=float).reshape(model.d, model.d)
    return newton_zero_mean(cell_system(model), F=F, tol=MICRO_TOL, ref=float(np.linalg.norm(F))).w


class HomogenizedDensity:
    """Phi0 over the model's cell system.  ``at(F)`` gives the
    ``hqc.DensityState`` (Phi0, stress, tangent, correctors) of one gradient
    (d, d) or a stack (T, d, d), read as a stack.  Its correctors are one
    ``hqc.micro_solve`` of the stack, each entry from the zero guess, so
    every value is a function of F alone."""

    def __init__(self, model: InteractionModel) -> None:
        self.model = model
        self.system = cell_system(model)

    def at(self, F) -> DensityState:
        d = self.model.d
        return DensityState(self.system, np.asarray(F, dtype=float).reshape(-1, d, d))

    def phi0(self, F):
        """Phi0 at one gradient (a float) or at each of a stack (T,)."""
        e = self.at(F).phi
        return float(e[0]) if np.ndim(F) < 3 else e


def harmonic_mean(psi) -> float:
    """Effective coefficient of springs in series: (mean of reciprocals)^-1."""
    psi = np.asarray(psi, dtype=float)
    if np.any(psi <= 0):
        raise ValueError("harmonic mean requires positive inputs")
    return float(1.0 / np.mean(1.0 / psi))
