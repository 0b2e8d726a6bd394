"""Full-atomistic reference: energy, equilibrium solve, and slow eigenmodes."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .lattice import LatticeField, Multilattice, average, l2_norm, project_zero_mean
from .network import BondSystem, avg_norm, compile_system, newton_zero_mean
from .potential import InteractionModel

#: eigenvalues below this fraction of the largest one count as translation modes
KERNEL_EIG_REL_TOL = 1e-8


@dataclass
class EquilibriumProblem:
    """Periodic molecular statics problem min E(u) - <f, u> over zero-mean u."""

    lattice: Multilattice
    model: InteractionModel
    force: LatticeField | None = None
    masses: np.ndarray | None = None  # per-site masses, used by dynamics
    _system: BondSystem = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.force is not None:
            scale = max(np.max(np.abs(self.force.values)), 1.0)
            if np.any(np.abs(average(self.force)) > 1e-12 * scale):
                raise ValueError("external force must have zero mean over the lattice")
        if self.masses is not None:
            self.masses = np.asarray(self.masses, dtype=float)
            if self.masses.shape != (self.lattice.n_sites,) or np.any(self.masses <= 0):
                raise ValueError("masses must be positive, one per site")

    @property
    def system(self) -> BondSystem:
        if self._system is None:
            self._system = compile_system(self.lattice, self.model, gap_scale=self.lattice.eps_float)
        return self._system


def total_energy(problem: EquilibriumProblem, u: LatticeField) -> float:
    """Interaction energy E(u) = < V(D_R u) >, the site average of site energies."""
    return problem.system.energy(u.values)


def energy_gradient(problem: EquilibriumProblem, u: LatticeField) -> LatticeField:
    """Riesz representer of the first variation with respect to <., .>_M."""
    return LatticeField(problem.lattice, problem.system.gradient(u.values))


def energy_hessian(problem: EquilibriumProblem, u: LatticeField) -> sp.csr_matrix:
    """Riesz Hessian, a symmetric sparse operator with constants in the kernel."""
    return problem.system.hessian(u.values)


def residual_norm(problem: EquilibriumProblem, u: LatticeField) -> float:
    g = problem.system.gradient(u.values)
    if problem.force is not None:
        g = g - problem.force.values
    return avg_norm(g)


def solve_equilibrium(
    problem: EquilibriumProblem,
    initial_guess: LatticeField | None = None,
    tol: float = 1e-10,
    max_iter: int = 50,
) -> LatticeField:
    """Newton solve of <dE(u), v> = <f, v> for zero-mean periodic u.

    Converges when the residual satisfies ||dE(u) - f|| <= tol * (1 + ||f||) in
    the discrete L2 norm; quadratic models finish in a single linear solve.
    """
    f = problem.force.values if problem.force is not None else None
    ref = l2_norm(problem.force) if problem.force is not None else 0.0
    w0 = initial_guess.values if initial_guess is not None else None
    result = newton_zero_mean(
        problem.system, F=None, w0=w0, f_ext=f, tol=tol, ref=ref, max_iter=max_iter
    )
    return project_zero_mean(LatticeField(problem.lattice, result.w))


def slowest_eigenmode(problem: EquilibriumProblem, u_eq: LatticeField) -> tuple[LatticeField, float]:
    """Slowest non-translational vibration mode at an equilibrium.

    Solves the generalized problem H v = lam M v with H the Hessian at u_eq and
    M the (diagonal) mass matrix, returning the eigenvector of the smallest
    nonzero eigenvalue.  The mode is L2-normalized, mass-orthogonal to the
    translations, and sign-fixed so its first nonzero component is positive.
    """
    if problem.masses is None:
        masses = np.ones(problem.lattice.n_sites)
    else:
        masses = problem.masses
    d = problem.lattice.d
    H = energy_hessian(problem, u_eq)
    mdiag = np.repeat(masses, d)
    n_dof = H.shape[0]
    if n_dof <= 4096:
        vals, vecs = scipy.linalg.eigh(np.asarray(H.todense()), np.diag(mdiag))
    else:
        M = sp.diags(mdiag).tocsc()
        k = min(d + 6, n_dof - 1)
        vals, vecs = spla.eigsh(H.tocsc(), k=k, M=M, sigma=0, which="LM")
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    lam_max = float(np.max(np.abs(vals)))
    nonzero = np.where(vals > KERNEL_EIG_REL_TOL * lam_max)[0]
    if len(nonzero) == 0:
        raise RuntimeError("no nonzero eigenvalue found; Hessian appears fully singular")
    idx = nonzero[0]
    mode = vecs[:, idx].reshape(problem.lattice.n_sites, d)
    field_ = LatticeField(problem.lattice, mode)
    norm = l2_norm(field_)
    mode = mode / norm
    flat = mode.ravel()
    first = flat[np.nonzero(np.abs(flat) > 1e-12 * np.max(np.abs(flat)))[0][0]]
    if first < 0:
        mode = -mode
    return LatticeField(problem.lattice, mode), float(vals[idx])
