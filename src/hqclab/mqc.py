"""Multilattice QC: shift-vector parametrization and the three-way equivalence.

Per element, the MQC degrees of freedom are the deformed shift vectors
q_1, ..., q_{m-1} (q_0 = 0); the bond gap between a site of species beta and
its neighbor of species a(beta, r) under the macro gradient F is

    F r + q_{a(beta, r)} - q_beta.

The per-element energy density (1/m) sum_beta V_beta(gaps) is made stationary
in the shifts by a small dense Newton.  A converged shift state and a
zero-mean cell corrector chi are two gauges of the same microstructure:
q_alpha = chi(p_alpha) - chi(p_0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import MacroMesh, P0Field, P1Field, all_element_gradients
from .homog import HomogenizedDensity
from .hqc import HQCOperator
from .lattice import Multilattice
from .network import SolverError
from .potential import InteractionModel, PotentialError

SHIFT_TOL = 1e-12


class ShiftSolveError(SolverError):
    pass


def _species_tables(model: InteractionModel):
    """Per species: offsets (float vectors) and the target-species indices."""
    offsets, targets = [], []
    for beta in range(model.m):
        specs = model.bond_specs(beta)
        offsets.append(np.array([s.offset.r_float for s in specs]))
        targets.append(np.array([s.offset.species_target for s in specs], dtype=int))
    return offsets, targets


def _gaps(F, q_full, beta, offsets, targets):
    return offsets[beta] @ F.T + q_full[targets[beta]] - q_full[beta][None, :]


def mqc_element_energy(model: InteractionModel, F, shifts: np.ndarray) -> float:
    """Element energy density (1/m) sum_beta V_beta(F r + q_a - q_beta)."""
    d = model.d
    F = np.asarray(F, dtype=float).reshape(d, d)
    q_full = np.zeros((model.m, d))
    if model.m > 1:
        q_full[1:] = np.asarray(shifts, dtype=float).reshape(model.m - 1, d)
    offsets, targets = _species_tables(model)
    total = 0.0
    for beta in range(model.m):
        gaps = _gaps(F, q_full, beta, offsets, targets)
        total += model.site_energy(beta, list(gaps))
    return total / model.m


def _shift_gradient_hessian(model, F, q_full, offsets, targets):
    """Gradient and Hessian of the element density with respect to q_1..q_{m-1}."""
    m, d = model.m, model.d
    nq = (m - 1) * d
    grad = np.zeros((m, d))
    hess = np.zeros((m, d, m, d))
    for beta in range(m):
        gaps = _gaps(F, q_full, beta, offsets, targets)
        gvecs = model.site_gradient(beta, list(gaps))
        hblocks = model.site_hessian(beta, list(gaps))
        for j, a in enumerate(targets[beta]):
            grad[a] += gvecs[j]
            grad[beta] -= gvecs[j]
            for k, c in enumerate(targets[beta]):
                blk = hblocks[j][k]
                hess[a, :, c, :] += blk
                hess[a, :, beta, :] -= blk
                hess[beta, :, c, :] -= blk
                hess[beta, :, beta, :] += blk
    grad = grad[1:].reshape(nq) / m
    hess = hess[1:, :, 1:, :].reshape(nq, nq) / m
    return grad, hess


def solve_shift_vectors(
    model: InteractionModel,
    F,
    guess: np.ndarray | None = None,
    tol: float = SHIFT_TOL,
    max_iter: int = 50,
) -> np.ndarray:
    """Stationary shift vectors q(F), shape (m-1, d); guess-deterministic."""
    d = model.d
    m = model.m
    F = np.asarray(F, dtype=float).reshape(d, d)
    if m == 1:
        return np.zeros((0, d))
    q = np.zeros((m - 1, d)) if guess is None else np.array(guess, dtype=float).reshape(m - 1, d)
    offsets, targets = _species_tables(model)
    ref = float(np.linalg.norm(F))
    for it in range(max_iter + 1):
        q_full = np.vstack([np.zeros((1, d)), q])
        grad, hess = _shift_gradient_hessian(model, F, q_full, offsets, targets)
        res = float(np.linalg.norm(grad))
        if res <= tol * (1.0 + ref):
            return q
        if it == max_iter:
            raise ShiftSolveError(f"shift Newton did not converge (residual {res:.3e})")
        try:
            step = np.linalg.solve(hess, -grad).reshape(m - 1, d)
        except np.linalg.LinAlgError as exc:
            raise ShiftSolveError("singular shift Hessian") from exc
        base = mqc_element_energy(model, F, q)
        lam = 1.0
        while lam > 2.0**-30:
            try:
                trial = mqc_element_energy(model, F, q + lam * step)
            except PotentialError:
                trial = np.inf
            if trial <= base + 1e-14 * (1 + abs(base)):
                break
            lam *= 0.5
        else:
            raise ShiftSolveError("shift line search failed")
        q = q + lam * step
    return q


def shifts_from_corrector(chi: np.ndarray) -> np.ndarray:
    """Map a cell corrector (m, d) to shift vectors: q_alpha = chi_alpha - chi_0."""
    chi = np.atleast_2d(chi)
    return chi[1:] - chi[0][None, :]


def corrector_from_shifts(shifts: np.ndarray, d: int) -> np.ndarray:
    """Zero-mean cell corrector equivalent to the shift state (gauge change)."""
    shifts = np.asarray(shifts, dtype=float).reshape(-1, d)
    chi = np.vstack([np.zeros((1, d)), shifts])
    return chi - chi.mean(axis=0)[None, :]


@dataclass
class ShiftState:
    """Per-element shift vectors, one piecewise-constant field per species
    alpha = 1 .. m-1 (the first species is pinned at zero)."""

    fields: list[P0Field]
    residual: float

    def element_shifts(self, t: int) -> np.ndarray:
        return np.stack([f.values[t] for f in self.fields]) if self.fields else np.zeros((0, 1))


def shift_residual(model: InteractionModel, F, shifts: np.ndarray) -> float:
    """Norm of the shift stationarity equations at the given shift vectors."""
    if model.m == 1:
        return 0.0
    d = model.d
    F = np.asarray(F, dtype=float).reshape(d, d)
    q_full = np.vstack([np.zeros((1, d)), np.asarray(shifts, dtype=float).reshape(model.m - 1, d)])
    offsets, targets = _species_tables(model)
    grad, _ = _shift_gradient_hessian(model, F, q_full, offsets, targets)
    return float(np.linalg.norm(grad))


def solve_shift_state(
    model: InteractionModel,
    mesh: MacroMesh,
    uh: P1Field,
    guesses: list[np.ndarray] | None = None,
) -> ShiftState:
    """Stationary shift vectors on every element of the mesh."""
    grads = all_element_gradients(uh)
    d = model.d
    per_species = np.zeros((max(model.m - 1, 0), mesh.n_elements, d))
    worst = 0.0
    for t in range(mesh.n_elements):
        g = None if guesses is None else guesses[t]
        q = solve_shift_vectors(model, grads[t], guess=g)
        if model.m > 1:
            per_species[:, t, :] = q
            worst = max(worst, shift_residual(model, grads[t], q))
    fields = [P0Field(mesh, per_species[a]) for a in range(max(model.m - 1, 0))]
    return ShiftState(fields=fields, residual=worst)


def mqc_energy(
    model: InteractionModel,
    mesh: MacroMesh,
    uh: P1Field,
    guesses: list[np.ndarray] | None = None,
) -> float:
    """Total MQC energy: element volumes times densities at stationary shifts."""
    grads = all_element_gradients(uh)
    state = solve_shift_state(model, mesh, uh, guesses)
    total = 0.0
    for t in range(mesh.n_elements):
        total += mesh.volumes[t] * mqc_element_energy(model, grads[t], state.element_shifts(t))
    return total


@dataclass
class EquivalenceReport:
    e_hqc: float
    e_fem: float
    e_mqc: float

    @property
    def max_gap(self) -> float:
        vals = (self.e_hqc, self.e_fem, self.e_mqc)
        return max(abs(a - b) for a in vals for b in vals)


def equivalence_report(
    model: InteractionModel,
    lattice: Multilattice,
    mesh: MacroMesh,
    uh: P1Field,
) -> EquivalenceReport:
    """Evaluate the same macro field through the three method formulations.

    All microproblems start from the zero guess (matched branches), so the
    three energies agree up to solver tolerances whenever the microstructure
    is unique along that branch.
    """
    e_hqc = HQCOperator(model, lattice, mesh).energy(uh)
    density = HomogenizedDensity(model)
    grads = all_element_gradients(uh)
    e_fem = float(sum(mesh.volumes[t] * density.phi0(grads[t]) for t in range(mesh.n_elements)))
    e_mqc = mqc_energy(model, mesh, uh)
    return EquivalenceReport(e_hqc=e_hqc, e_fem=e_fem, e_mqc=e_mqc)
