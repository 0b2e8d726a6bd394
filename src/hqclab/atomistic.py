"""Full-atomistic reference: energy, equilibrium solve, and slow eigenmodes.

Each runs on the model's compiled system in corrector variables chi = u / eps,
the micro system of HQC's full sampling: E(u) = E_1(u / eps), so the gradient
carries a factor 1/eps and the Hessian 1/eps^2."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import ZERO_MEAN_TOL, LatticeField, Multilattice, average, l2_norm, project_zero_mean, translate
from .network import BondSystem, SolverError, compile_system, newton_zero_mean
from .potential import InteractionModel


@dataclass
class EquilibriumProblem:
    """Periodic molecular statics problem min E(u) - <f, u> over zero-mean u."""

    lattice: Multilattice
    model: InteractionModel
    force: LatticeField | None = None
    masses: np.ndarray | None = None  # per-site masses, used by dynamics; None means unit

    def __post_init__(self) -> None:
        if self.force is not None:
            if self.force.lattice is not self.lattice:
                raise ValueError("the external force stands on another lattice than the problem's")
            scale = max(np.max(np.abs(self.force.values)), 1.0)
            if np.any(np.abs(average(self.force)) > 1e-12 * scale):
                raise ValueError("external force must have zero mean over the lattice")
        n = self.lattice.n_sites
        self.masses = np.ones(n) if self.masses is None else np.asarray(self.masses, dtype=float)
        if self.masses.shape != (n,) or np.any(self.masses <= 0):
            raise ValueError("masses must be positive, one per site")

    @cached_property
    def system(self) -> BondSystem:
        return compile_system(self.lattice, self.model)


def total_energy(problem: EquilibriumProblem, u: LatticeField) -> float:
    """Interaction energy E(u) = < V(D_R u) >, the site average of site energies."""
    return problem.system.energy(u.values / problem.lattice.eps_float)


def energy_hessian(problem: EquilibriumProblem, u: LatticeField):
    """Riesz Hessian, symmetric with constants in the kernel: a CSR matrix, or
    on a one-cell lattice a dense stack of one (1, n_dof, n_dof)."""
    eps = problem.lattice.eps_float
    return problem.system.hessian(u.values / eps) / eps**2


def solve_equilibrium(
    problem: EquilibriumProblem,
    initial_guess: LatticeField | None = None,
    tol: float = 1e-10,
) -> LatticeField:
    """Newton solve of <dE(u), v> = <f, v> for zero-mean periodic u.

    Converges when the residual satisfies ||dE(u) - f|| <= tol * (1 + ||f||) in
    the discrete L2 norm (eps times that in chi = u / eps); quadratic models
    finish in a single linear solve.
    """
    eps = problem.lattice.eps_float
    f = eps * problem.force.values if problem.force is not None else None
    ref = l2_norm(problem.force) if problem.force is not None else 0.0
    w0 = initial_guess.values / eps if initial_guess is not None else None
    result = newton_zero_mean(problem.system, F=None, w0=w0, f_ext=f, tol=eps * tol, ref=ref)
    return project_zero_mean(LatticeField(problem.lattice, eps * result.w))


def slowest_eigenmode(problem: EquilibriumProblem, u_eq: LatticeField) -> tuple[LatticeField, float]:
    """Slowest non-translational vibration mode of a chain (at least 3 cells) at a
    cell-periodic equilibrium.

    There the Hessian H is block-circulant, so the span of the longest Bloch
    waves {e_alpha cos 2 pi x, e_alpha sin 2 pi x} (one pair per species) is
    invariant and holds the smallest nonzero eigenvalue lam of H v = lam M v,
    with M the diagonal mass matrix.  A Rayleigh-Ritz solve on that span,
    V^T H V y = lam B y with B = V^T M V, reduced through the Cholesky factor
    of B to one symmetric eigenproblem (numpy), gives every Ritz value as a
    cos/sin pair; the mode is the M-projection of the all-species cosine wave
    onto the eigenspace of the lowest pair, so it does not depend on the basis
    the eigensolver returns.  The mode is L2-normalized and sign-fixed so its
    first nonzero component is positive.  A B that is not positive definite
    raises SolverError.
    """
    lat = problem.lattice
    if lat.d != 1:
        raise SolverError("the Bloch-wave eigenmode is defined for 1D chains only")
    if lat.cells_per_dim <= 2:
        raise SolverError(f"the Bloch-wave eigenmode needs at least 3 cells, not {lat.cells_per_dim}: "
                          "on fewer the cos/sin 2 pi x pair is degenerate")
    scale = max(float(np.max(np.abs(u_eq.values))), 1.0)
    if np.max(np.abs(translate(u_eq, [1]).values - u_eq.values)) > ZERO_MEAN_TOL * scale:
        raise SolverError("equilibrium is not cell-periodic, so its Hessian is not block-circulant")
    phase = 2 * np.pi * lat.site_positions()
    onehot = lat.site_species()[:, None] == np.arange(lat.m)
    V = np.hstack([onehot * np.cos(phase), onehot * np.sin(phase)])
    H = energy_hessian(problem, u_eq)
    B = V.T @ (problem.masses[:, None] * V)
    try:
        L = np.linalg.cholesky(B)
    except np.linalg.LinAlgError as exc:
        raise SolverError("Bloch mass matrix V^T M V is not positive definite") from exc
    # L^-1 (V^T H V) L^-T by two solves, as LAPACK reduces it; through an explicit
    # inverse, the eigenvalue of a 1024-atom chain differs from LAPACK's by 3e-11
    vals, y = np.linalg.eigh(np.linalg.solve(L, np.linalg.solve(L, V.T @ (H @ V)).T).T)
    vecs = np.linalg.solve(L.T, y)   # B-orthonormal
    lam = float(vals[0])
    if not lam > 0:
        raise SolverError(f"lowest Bloch eigenvalue {lam:.6g} is not positive")
    pair = vecs[:, :2]  # M-orthonormal basis of the lowest cos/sin pair
    cosine = np.repeat([1.0, 0.0], lat.m)  # cos 2 pi x on every species, in the basis V
    coef = pair.T @ (B @ cosine)
    if np.linalg.norm(coef) <= 1e-8 * np.sqrt(cosine @ B @ cosine):
        raise SolverError("the cosine wave has no component in the lowest Bloch eigenspace")
    v = V @ (pair @ coef)
    Mv = problem.masses * v
    if np.linalg.norm(H @ v - lam * Mv) > 1e-8 * lam * np.linalg.norm(Mv):
        raise SolverError("Bloch span is not invariant: masses or equilibrium not cell-periodic")
    mode = v / np.sqrt(np.mean(v**2))
    first = mode[np.nonzero(np.abs(mode) > 1e-12 * np.max(np.abs(mode)))[0][0]]
    if first < 0:
        mode = -mode
    return LatticeField(lat, mode[:, None]), lam
