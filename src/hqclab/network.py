"""Shared engine: periodic bond networks, their derivatives, and the Newton driver.

Every equilibrium problem in the package reduces to the same shape: a torus of
sites, a list of bonds (src, dst, offset vector r, bond law), and an energy

    E(w; F) = (1/n_sites) * sum_bonds phi_b( F r_b + (w[dst_b] - w[src_b]) / gap_scale )

minimized over zero-mean periodic fields w.  The three uses are

* full atomistic statics:   gap_scale = eps, F = 0, w = displacement u;
* cell / micro problems:    gap_scale = 1,  F = macro gradient, w = corrector chi
  (the physical corrector is eps * chi);
* affine (Cauchy-Born) closures: w frozen at zero.

Gradients and Hessians are returned as Riesz representers with respect to the
site-averaged inner product <u, v> = (1/n) sum u(x).v(x), so that the gradient
of a translation-invariant energy has exactly zero mean and the Hessian carries
the constant fields in its kernel.

``newton`` solves every such problem, and also the macro problems of the HQC
and homogenized-FEM solvers, whose nodal fields are zero-mean in the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .lattice import Multilattice
from .potential import InteractionModel, PotentialError

#: below this many degrees of freedom, linear solves go through dense LAPACK
DENSE_DOF_LIMIT = 600


class SolverError(RuntimeError):
    """Newton iteration failed to converge or hit a singular operator."""


class BondSystem:
    """Compiled bond list of an interaction model on a periodic site torus.

    ``law`` holds the per-bond parameters of every bond, so each evaluation is
    one law call.  ``gaps``, ``energy``, ``bond_forces``, ``gradient`` and
    ``stress`` also take a stack of fields w (T, n_sites, d) with gradients
    F (T, d, d) and return one result per stack entry.
    """

    def __init__(
        self,
        n_sites: int,
        d: int,
        src: np.ndarray,
        dst: np.ndarray,
        rvec: np.ndarray,
        law,
        gap_scale: float = 1.0,
    ) -> None:
        self.n_sites = n_sites
        self.d = d
        self.src = src
        self.dst = dst
        self.rvec = rvec
        self.law = law
        self.gap_scale = float(gap_scale)
        self.n_dof = n_sites * d
        self.incidence = incidence_matrix(n_sites, src, dst)

    # ------------------------------------------------------------- evaluation

    def gaps(self, w: np.ndarray, F: np.ndarray | None = None) -> np.ndarray:
        # np.take keeps stacked gaps C-contiguous, so the per-entry bond sums
        # downstream round exactly like those of a single field
        g = (np.take(w, self.dst, axis=-2) - np.take(w, self.src, axis=-2)) / self.gap_scale
        if F is not None:
            g = g + self.rvec @ np.swapaxes(np.atleast_2d(F), -1, -2)
        return g

    def energy(self, w: np.ndarray, F: np.ndarray | None = None):
        """Energy per site: a float, or one per stack entry."""
        e = self.law.energy(self.gaps(w, F), self.rvec).sum(axis=-1) / self.n_sites
        return float(e) if np.ndim(e) == 0 else e

    def bond_forces(self, w: np.ndarray, F: np.ndarray | None = None) -> np.ndarray:
        """phi'_b per bond, shape (..., n_bonds, d)."""
        return self.law.grad(self.gaps(w, F), self.rvec)

    def bond_stiffness(self, w: np.ndarray, F: np.ndarray | None = None) -> np.ndarray:
        """phi''_b per bond, shape (..., n_bonds, d, d)."""
        return self.law.hess(self.gaps(w, F), self.rvec)

    def _scatter(self, per_bond: np.ndarray) -> np.ndarray:
        """Riesz gradient from per-bond forces: +phi' at dst, -phi' at src, / gap_scale."""
        nb, d = per_bond.shape[-2:]
        lead = per_bond.shape[:-2]
        flat = np.moveaxis(per_bond, -2, 0).reshape(nb, -1)
        out = (self.incidence @ flat).reshape((self.n_sites,) + lead + (d,))
        return np.moveaxis(out, 0, -2) / self.gap_scale

    def gradient(self, w: np.ndarray, F: np.ndarray | None = None) -> np.ndarray:
        return self._scatter(self.bond_forces(w, F))

    def stress(self, w: np.ndarray, F: np.ndarray | None = None) -> np.ndarray:
        """Averaged first Piola-type stress < sum_r phi'_r r^T >, shape (..., d, d)."""
        forces = self.bond_forces(w, F)
        return np.swapaxes(forces, -1, -2) @ self.rvec / self.n_sites

    def affine_force(self, w: np.ndarray, F: np.ndarray | None, G: np.ndarray) -> np.ndarray:
        """Riesz representer of v -> < sum_r phi''_r (G r), D_r v >.

        This is the right-hand side of the sensitivity (tangent) problem for a
        perturbation of the imposed gradient in direction G.
        """
        k = self.bond_stiffness(w, F)
        gr = self.rvec @ np.atleast_2d(G).T
        return self._scatter(np.einsum("bij,bj->bi", k, gr))

    def hessian(self, w: np.ndarray, F: np.ndarray | None = None) -> sp.csr_matrix:
        """Riesz Hessian as a sparse (n_dof x n_dof) matrix."""
        k = self.bond_stiffness(w, F) / self.gap_scale**2
        d = self.d
        nb = len(self.src)
        src = self.src
        dst = self.dst
        ii, jj = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
        ii = ii.ravel()
        jj = jj.ravel()

        def block_rows(sites):
            return (sites[:, None] * d + ii[None, :]).ravel()

        def block_cols(sites):
            return (sites[:, None] * d + jj[None, :]).ravel()

        vals = k.reshape(nb, d * d)
        rows = np.concatenate([block_rows(src), block_rows(dst), block_rows(src), block_rows(dst)])
        cols = np.concatenate([block_cols(src), block_cols(dst), block_cols(dst), block_cols(src)])
        data = np.concatenate([vals, vals, -vals, -vals], axis=0).ravel()
        H = sp.coo_matrix((data, (rows, cols)), shape=(self.n_dof, self.n_dof))
        return H.tocsr()


def incidence_matrix(n_sites: int, src: np.ndarray, dst: np.ndarray) -> sp.csr_matrix:
    """Sites x bonds matrix D with +1 at (dst_b, b) and -1 at (src_b, b).

    Each row holds its dst entries in bond order, then its src entries: the
    order in which ``np.add.at(out, dst, f); np.subtract.at(out, src, f)``
    accumulates.  The entries stay in that order (never canonicalized), so
    ``D @ f`` rounds exactly like those two calls.
    """
    nb = len(src)
    rows = np.concatenate([dst, src])
    order = np.argsort(rows, kind="stable")
    cols = np.concatenate([np.arange(nb), np.arange(nb)])[order]
    data = np.concatenate([np.ones(nb), -np.ones(nb)])[order]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n_sites))])
    return sp.csr_matrix((data, cols, indptr), shape=(n_sites, nb))


def compile_system(lattice: Multilattice, model: InteractionModel, gap_scale: float,
                   parent_cells: np.ndarray | None = None) -> BondSystem:
    """Build the bond list of ``model`` on ``lattice``.

    ``parent_cells`` maps the torus cells to cells of a parent lattice and is
    used by models with site-dependent coefficients (random bond networks
    restricted to a sampling subgrid).
    """
    if model.d != lattice.d or model.m != lattice.m:
        raise PotentialError("model and lattice are incompatible")
    src_parts, dst_parts, r_parts, laws, counts = [], [], [], [], []
    cells = parent_cells if parent_cells is not None else np.arange(lattice.n_cells)
    for alpha in range(lattice.m):
        for spec in model.bond_specs(alpha, cells):
            src = lattice.species_sites(alpha)
            dst = lattice.neighbor_sites(alpha, lattice.resolve_offset(alpha, spec.offset.r))
            nb = len(src)
            src_parts.append(src)
            dst_parts.append(dst)
            r_parts.append(np.tile(spec.offset.r_float, (nb, 1)))
            laws.append(spec.law)
            counts.append(nb)
    return BondSystem(
        n_sites=lattice.n_sites,
        d=lattice.d,
        src=np.concatenate(src_parts),
        dst=np.concatenate(dst_parts),
        rvec=np.concatenate(r_parts, axis=0),
        law=type(laws[0]).stack(laws, counts),
        gap_scale=gap_scale,
    )


# ------------------------------------------------------------- linear algebra


def avg_norm(v: np.ndarray):
    """Discrete L2 norm sqrt(<|v|^2>) over sites: a float, or one per stack entry."""
    out = np.sqrt(np.mean(np.sum(np.atleast_2d(v) ** 2, axis=-1), axis=-1))
    return float(out) if np.ndim(out) == 0 else out


def project_zero_mean_array(w: np.ndarray) -> np.ndarray:
    """Subtract the site mean (of each stack entry)."""
    return w - w.mean(axis=-2, keepdims=True)


class GaugeFixedOperator:
    """Linear solver for Riesz Hessians with the constant fields in the kernel.

    Small systems add a rank-d regularization on the constant modes; larger
    sparse systems pin the first site's degrees of freedom instead (an
    equivalent gauge choice that preserves sparsity).  Either way the returned
    increment is projected back to zero mean, so both paths produce the same
    zero-mean Newton step.
    """

    def __init__(self, H: sp.spmatrix, d: int) -> None:
        self.d = d
        self.n_dof = H.shape[0]
        self.n_sites = self.n_dof // d
        self._H = H.tocsr()
        if self.n_dof <= DENSE_DOF_LIMIT:
            A = np.asarray(H.todense())
            scale = max(np.abs(np.diag(A)).mean(), 1.0)
            for i in range(d):
                mode = np.zeros(self.n_dof)
                mode[i::d] = 1.0 / np.sqrt(self.n_sites)
                A = A + scale * np.outer(mode, mode)
            try:
                self._dense = np.linalg.inv(A)
            except np.linalg.LinAlgError as exc:
                raise SolverError("singular stiffness beyond the translation kernel") from exc
            self._lu = None
        else:
            keep = np.arange(d, self.n_dof)
            A = H.tocsr()[keep][:, keep].tocsc()
            try:
                self._lu = spla.splu(A)
            except RuntimeError as exc:
                raise SolverError("singular stiffness beyond the translation kernel") from exc
            self._dense = None
            self._keep = keep

    def _raw_solve(self, b: np.ndarray) -> np.ndarray:
        if self._dense is not None:
            return self._dense @ b
        x = np.zeros(self.n_dof)
        x[self._keep] = self._lu.solve(b[self._keep])
        return x

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve H x = rhs (rhs shape (n_sites, d)); returns a zero-mean field.

        One step of iterative refinement keeps the step accurate when the
        stiffness entries are large (fine lattices scale like 1/eps^2).
        """
        b = rhs.ravel()
        x = self._raw_solve(b)
        x = project_zero_mean_array(x.reshape(self.n_sites, self.d)).ravel()
        r = b - self._H @ x
        x = x + self._raw_solve(r)
        x = x.reshape(self.n_sites, self.d)
        return project_zero_mean_array(x)


@dataclass
class NewtonResult:
    w: np.ndarray
    residual: float
    iterations: int


def newton(energy, gradient, hessian, w0: np.ndarray, d: int, threshold: float,
           max_iter: int = 50) -> NewtonResult:
    """Zero-mean Newton iteration: the one nonlinear solver of the package.

    ``energy``, ``gradient`` and ``hessian`` map an (n, d) field to the
    objective, its Riesz gradient and its sparse Hessian.  Iterates stay zero
    mean, and convergence is declared once avg_norm(gradient) <= ``threshold``.
    Each gauge-fixed Newton step is halved until the objective does not rise;
    a trial that raises PotentialError counts as a rise.
    """
    w = project_zero_mean_array(np.array(w0, dtype=float))
    for it in range(max_iter + 1):
        g = gradient(w)
        res = avg_norm(g)
        if res <= threshold:
            return NewtonResult(w, res, it)
        if it == max_iter:
            break
        step = GaugeFixedOperator(hessian(w), d).solve(-g)
        lam = 1.0
        base = energy(w)
        while lam > 2.0**-30:
            try:
                trial = energy(project_zero_mean_array(w + lam * step))
            except PotentialError:
                trial = np.inf
            if trial <= base + 1e-14 * (1 + abs(base)):
                break
            lam *= 0.5
        else:
            raise SolverError("line search failed (bond collapse or ascent direction)")
        w = project_zero_mean_array(w + lam * step)
    raise SolverError(f"Newton did not converge: residual {res:.3e} after {max_iter} iterations")


def newton_zero_mean(
    system: BondSystem,
    F: np.ndarray | None = None,
    w0: np.ndarray | None = None,
    f_ext: np.ndarray | None = None,
    tol: float = 1e-12,
    ref: float = 0.0,
    max_iter: int = 50,
) -> NewtonResult:
    """Find the zero-mean critical point of E(w; F) - <f_ext, w> with ``newton``.

    The residual is measured as sqrt(<|gradient|^2>) and convergence is
    declared at ``tol * (1 + ref)``; quadratic energies converge in one
    iteration.
    """

    def energy(w):
        e = system.energy(w, F)
        if f_ext is not None:
            e -= float(np.mean(np.sum(f_ext * w, axis=1)))
        return e

    def gradient(w):
        g = system.gradient(w, F)
        return g if f_ext is None else g - f_ext

    if w0 is None:
        w0 = np.zeros((system.n_sites, system.d))
    return newton(energy, gradient, lambda w: system.hessian(w, F), w0, system.d,
                  tol * (1.0 + ref), max_iter)
