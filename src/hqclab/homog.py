"""Continuum homogenization: cell problem, homogenized density, and its FEM.

The corrector chi(F; .) lives on one lattice period (m sites, zero mean) and
solves

    < sum_r V'_r(F R + D_y chi), D_y sigma > = 0   for all zero-mean sigma,

with undivided differences D_y chi(y) = chi(y + r) - chi(y) on the periodic
cell.  The homogenized energy density and stress follow by averaging:

    Phi0(F)  = < V(F R + D_y chi(F)) >,
    dPhi0(F) = < sum_r V'_r(F R + D_y chi(F)) r^T >,

the latter needing no corrector sensitivity (envelope property).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import MacroMesh, P1Field, all_element_gradients, assemble, nodal_forces, p1_zero_mean
from .lattice import Multilattice
from .network import (
    BondSystem,
    GaugeFixedOperator,
    compile_system,
    newton_zero_mean,
    project_zero_mean_array,
)
from .potential import InteractionModel

CELL_TOL = 1e-12
FD_STEP_REL = 1e-5
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
    initial_guess: np.ndarray | None = None,
    tol: float = CELL_TOL,
    system: BondSystem | None = None,
) -> np.ndarray:
    """Zero-mean corrector chi(F), shape (m, d).

    Guess-deterministic: returns the solution reached from ``initial_guess``
    (zero by default).  Residual tolerance is tol * (1 + ||F||).
    """
    sys_ = system if system is not None else cell_system(cell.model)
    ref = float(np.linalg.norm(cell.F))
    result = newton_zero_mean(sys_, F=cell.F, w0=initial_guess, tol=tol, ref=ref)
    return result.w


class HomogenizedDensity:
    """Phi0 / dPhi0 evaluations with corrector caching keyed on quantized F."""

    def __init__(self, model: InteractionModel, tol: float = CELL_TOL) -> None:
        self.model = model
        self.tol = tol
        self.system = cell_system(model)
        self._cache: dict[tuple, np.ndarray] = {}

    def _key(self, F: np.ndarray) -> tuple:
        return tuple(np.round(np.asarray(F, dtype=float).ravel(), F_CACHE_DIGITS))

    def chi(self, F, guess: np.ndarray | None = None) -> np.ndarray:
        F = np.asarray(F, dtype=float).reshape(self.model.d, self.model.d)
        key = self._key(F)
        if key not in self._cache:
            self._cache[key] = solve_cell_problem(
                CellProblem(self.model, F), initial_guess=guess, tol=self.tol, system=self.system
            )
        return self._cache[key]

    def phi0(self, F, guess: np.ndarray | None = None) -> float:
        F = np.asarray(F, dtype=float).reshape(self.model.d, self.model.d)
        return self.system.energy(self.chi(F, guess), F)

    def dphi0(self, F, guess: np.ndarray | None = None) -> np.ndarray:
        F = np.asarray(F, dtype=float).reshape(self.model.d, self.model.d)
        return self.system.stress(self.chi(F, guess), F)

    def d2phi0(self, F, step_rel: float = FD_STEP_REL) -> np.ndarray:
        """Fourth-order tangent by central differences of dPhi0."""
        d = self.model.d
        F = np.asarray(F, dtype=float).reshape(d, d)
        h = step_rel * max(1.0, float(np.linalg.norm(F)))
        out = np.zeros((d, d, d, d))
        base_chi = self.chi(F)
        for k in range(d):
            for l in range(d):
                dF = np.zeros((d, d))
                dF[k, l] = h
                plus = solve_cell_problem(
                    CellProblem(self.model, F + dF), initial_guess=base_chi,
                    tol=self.tol, system=self.system,
                )
                minus = solve_cell_problem(
                    CellProblem(self.model, F - dF), initial_guess=base_chi,
                    tol=self.tol, system=self.system,
                )
                sp_ = self.system.stress(plus, F + dF)
                sm = self.system.stress(minus, F - dF)
                out[:, :, k, l] = (sp_ - sm) / (2 * h)
        return out


def phi0(density: HomogenizedDensity, F) -> float:
    return density.phi0(F)


def dphi0(density: HomogenizedDensity, F) -> np.ndarray:
    return density.dphi0(F)


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
    """
    d = mesh.d
    u = np.zeros((mesh.n_vertices, d))
    b = np.zeros_like(u) if load is None else np.asarray(load, dtype=float)
    ref = float(np.linalg.norm(b))

    def macro_gradient(uv: np.ndarray) -> np.ndarray:
        grads = all_element_gradients(P1Field(mesh, uv))
        return nodal_forces(mesh, np.array([density.dphi0(F) for F in grads])) - b

    def macro_hessian(uv: np.ndarray):
        grads = all_element_gradients(P1Field(mesh, uv))
        return assemble(mesh, np.array([density.d2phi0(F) for F in grads]))

    for it in range(max_iter + 1):
        g = project_zero_mean_array(macro_gradient(u))
        if np.linalg.norm(g) <= tol * (1.0 + ref):
            return p1_zero_mean(P1Field(mesh, u))
        if it == max_iter:
            raise RuntimeError("homogenized FEM Newton did not converge")
        H = macro_hessian(u)
        op = GaugeFixedOperator(H, d)
        step = op.solve(-g)
        u = project_zero_mean_array(u + step)
    return p1_zero_mean(P1Field(mesh, u))
