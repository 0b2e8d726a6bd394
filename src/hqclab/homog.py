"""Continuum homogenization: cell problem, homogenized density, and its FEM.

The corrector chi(F; .) lives on one lattice period (m sites, zero mean) and
solves

    < sum_r V'_r(F R + D_y chi), D_y sigma > = 0   for all zero-mean sigma,

with undivided differences D_y chi(y) = chi(y + r) - chi(y) on the periodic
cell.  The homogenized energy density and stress follow by averaging:

    Phi0(F)  = < V(F R + D_y chi(F)) >,
    dPhi0(F) = < sum_r V'_r(F R + D_y chi(F)) r^T >,

the latter needing no corrector sensitivity (envelope property).  The tangent
d2Phi0 is the condensed tangent of the HQC micro layer on the cell system,
and a stack of gradients is one stacked solve of that layer.
"""

from __future__ import annotations

import numpy as np

from .fem import MacroMesh, P1Field
from .hqc import MICRO_TOL, condensed_tangent, macro_newton, micro_sensitivity, micro_solve
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
    """Phi0 and its first two derivatives at one gradient (d, d) or a stack
    (T, d, d).  The correctors come from one ``hqc.micro_solve`` of the stack
    on the cell system, each entry from the zero guess, so every value is a
    function of F alone."""

    def __init__(self, model: InteractionModel) -> None:
        self.model = model
        self.system = cell_system(model)

    def _states(self, F) -> tuple[np.ndarray, np.ndarray, bool]:
        """Gradients as a stack (T, d, d), their correctors (T, m, d), and
        whether F was one gradient."""
        d = self.model.d
        F = np.asarray(F, dtype=float)
        single = F.ndim < 3
        F = F.reshape((1 if single else -1, d, d))
        return F, micro_solve(self.system, F), single

    def chi(self, F) -> np.ndarray:
        _, chi, single = self._states(F)
        return chi[0] if single else chi

    def phi0(self, F):
        F, chi, single = self._states(F)
        e = self.system.energy(chi, F)
        return float(e[0]) if single else e

    def dphi0(self, F) -> np.ndarray:
        F, chi, single = self._states(F)
        P = self.system.stress(chi, F)
        return P[0] if single else P

    def d2phi0(self, F) -> np.ndarray:
        """Fourth-order tangent: the condensed tangent at the cell corrector."""
        F, chi, single = self._states(F)
        A = condensed_tangent(self.system, chi, F, micro_sensitivity(self.system, chi, F))
        return A[0] if single else A


def harmonic_mean(psi) -> float:
    """Effective coefficient of springs in series: (mean of reciprocals)^-1."""
    psi = np.asarray(psi, dtype=float)
    if np.any(psi <= 0):
        raise ValueError("harmonic mean requires positive inputs")
    return float(1.0 / np.mean(1.0 / psi))


def solve_homogenized_fem(
    mesh: MacroMesh,
    density: HomogenizedDensity,
    load: np.ndarray | None = None,
    tol: float = 1e-10,
) -> P1Field:
    """Macro FEM for the homogenized energy: critical point of
    sum_T |T| Phi0(grad u^h|_T) - load . u^h over zero-mean P1 fields.

    ``load`` is a (n_vertices, d) vector of nodal load values (the pairing of
    the external force with the nodal hats); omit it for the unforced problem.
    It is ``macro_newton`` over Phi0, the solve of ``HQCOperator.solve``; an
    ``HQCOperator`` as ``density`` gives that operator's solve.
    """
    return macro_newton(mesh, density, load, tol)[0]
