"""Continuum homogenization: cell problem, homogenized density, and its FEM.

The corrector chi(F; .) lives on one lattice period (m sites, zero mean) and
solves

    < sum_r V'_r(F R + D_y chi), D_y sigma > = 0   for all zero-mean sigma,

with undivided differences D_y chi(y) = chi(y + r) - chi(y) on the periodic
cell.  The homogenized energy density and stress follow by averaging:

    Phi0(F)  = < V(F R + D_y chi(F)) >,
    dPhi0(F) = < sum_r V'_r(F R + D_y chi(F)) r^T >,

the latter needing no corrector sensitivity (envelope property).  The tangent
d2Phi0 is the condensed tangent of the HQC micro layer on the cell system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import MacroMesh, P1Field, all_element_gradients, assemble, nodal_forces, p1_zero_mean
from .hqc import condensed_tangent, micro_sensitivity
from .lattice import Multilattice
from .network import BondSystem, compile_system, newton, newton_zero_mean, project_zero_mean_array
from .potential import InteractionModel

CELL_TOL = 1e-12
F_CACHE_DIGITS = 12


def unit_cell(model: InteractionModel) -> Multilattice:
    """One lattice period in fast-variable coordinates (eps = 1, m sites)."""
    return Multilattice(model.d, 1, model.shifts())


@dataclass
class CellProblem:
    """Corrector problem on one period under the imposed gradient F."""

    model: InteractionModel
    F: np.ndarray

    def __post_init__(self) -> None:
        d = self.model.d
        self.F = np.asarray(self.F, dtype=float).reshape(d, d)


def cell_system(model: InteractionModel) -> BondSystem:
    return compile_system(unit_cell(model), model, gap_scale=1.0)


def solve_cell_problem(
    cell: CellProblem,
    tol: float = CELL_TOL,
    system: BondSystem | None = None,
) -> np.ndarray:
    """Zero-mean corrector chi(F), shape (m, d), reached from the zero guess.

    Residual tolerance is tol * (1 + ||F||).
    """
    sys_ = system if system is not None else cell_system(cell.model)
    ref = float(np.linalg.norm(cell.F))
    return newton_zero_mean(sys_, F=cell.F, tol=tol, ref=ref).w


class HomogenizedDensity:
    """Phi0 and its first two derivatives, with correctors cached on quantized F."""

    def __init__(self, model: InteractionModel, tol: float = CELL_TOL) -> None:
        self.model = model
        self.tol = tol
        self.system = cell_system(model)
        self._cache: dict[tuple, np.ndarray] = {}

    def _key(self, F: np.ndarray) -> tuple:
        return tuple(np.round(np.asarray(F, dtype=float).ravel(), F_CACHE_DIGITS))

    def chi(self, F) -> np.ndarray:
        F = np.asarray(F, dtype=float).reshape(self.model.d, self.model.d)
        key = self._key(F)
        if key not in self._cache:
            self._cache[key] = solve_cell_problem(
                CellProblem(self.model, F), tol=self.tol, system=self.system
            )
        return self._cache[key]

    def phi0(self, F) -> float:
        F = np.asarray(F, dtype=float).reshape(self.model.d, self.model.d)
        return self.system.energy(self.chi(F), F)

    def dphi0(self, F) -> np.ndarray:
        F = np.asarray(F, dtype=float).reshape(self.model.d, self.model.d)
        return self.system.stress(self.chi(F), F)

    def d2phi0(self, F) -> np.ndarray:
        """Fourth-order tangent: the condensed tangent at the cell corrector."""
        F = np.asarray(F, dtype=float).reshape(self.model.d, self.model.d)
        chi = self.chi(F)
        return condensed_tangent(self.system, chi, F, micro_sensitivity(self.system, chi, F))


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
    max_iter: int = 50,
) -> P1Field:
    """Macro FEM for the homogenized energy: critical point of
    sum_T |T| Phi0(grad u^h|_T) - load . u^h over zero-mean P1 fields.

    ``load`` is a (n_vertices, d) vector of nodal load values (the pairing of
    the external force with the nodal hats); omit it for the unforced problem.
    Converges like ``HQCOperator.solve``: Euclidean norm of the projected nodal
    residual at most ``tol * (1 + ||load||)``.
    """
    b = np.zeros((mesh.n_vertices, mesh.d)) if load is None else np.asarray(load, dtype=float)

    def grads_of(u):
        return all_element_gradients(P1Field(mesh, u))

    def energy(u):
        e = mesh.volumes @ np.array([density.phi0(F) for F in grads_of(u)])
        return float(e) - float(np.sum(b * u))

    def gradient(u):
        P = np.array([density.dphi0(F) for F in grads_of(u)])
        return project_zero_mean_array(nodal_forces(mesh, P) - b)

    def hessian(u):
        return assemble(mesh, np.array([density.d2phi0(F) for F in grads_of(u)]))

    threshold = tol * (1.0 + float(np.linalg.norm(b))) / np.sqrt(mesh.n_vertices)
    result = newton(energy, gradient, hessian, np.zeros_like(b), (mesh.n,) * mesh.d, threshold,
                    max_iter)
    return p1_zero_mean(P1Field(mesh, result.w))
