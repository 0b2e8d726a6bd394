"""Shared engine: periodic bond networks, their derivatives, and the Newton driver.

Every equilibrium problem in the package reduces to the same shape: a torus of
sites, a list of bonds (src, dst, offset vector r, bond law), and an energy

    E(w; F) = (1/n_sites) * sum_bonds phi_b( F r_b + w[dst_b] - w[src_b] )

minimized over zero-mean periodic fields w in corrector variables.  The three
uses are

* full atomistic statics:   F = 0, w = u / eps for the displacement u, the
  micro problem of HQC's full sampling (``atomistic`` scales by eps);
* cell / micro problems:    F = macro gradient, w = corrector chi
  (the physical corrector is eps * chi);
* affine (Cauchy-Born) closures: w frozen at zero.

Gradients and Hessians are returned as Riesz representers with respect to the
site-averaged inner product <u, v> = (1/n) sum u(x).v(x), so that the gradient
of a translation-invariant energy has exactly zero mean and the Hessian carries
the constant fields in its kernel.

``newton`` solves stacks of such problems (one problem is a stack of one),
whose laws may differ per entry on one-cell systems (the law of a
``potential.ModelStack``, read for the active rows by ``BondSystem.take``), and
also the macro problems of the HQC and homogenized-FEM solvers, whose nodal
fields are zero-mean in the same way.  Its one ``evaluate`` callback gives an
iterate's objectives, gradients and operator, each computed only when asked
for, and each iterate is evaluated once.  Each Newton step is one
``GaugeFixedOperator`` solve: batched dense LAPACK for the Hessian stacks of
one-cell systems, FFT-preconditioned CG for one field on a grid of cells, with
the grid-averaged stencil as the preconditioner (the lattice analogue of
Moulinec-Suquet FFT homogenization).  The Hessian, like ``fem.assemble``'s
stiffness, is per-cell block rows (``BlockRows``) whose cell mean is the
stencil: the whole Hessian on one cell, and on a grid, where a stack of fields
is refused, the grid average of the CSR matrix the rows are.  scipy serves
only the sparse matrices (the incidence scatter, the grid Hessian) PCG needs.

Springs have the stiffness psi_b I, so their Hessian is L (x) I_d, with L the
weighted graph Laplacian of the bonds (the discrete random-conductance
operator).  Their solver (``BondSystem.operator``) holds L, built by the same
code at block size 1, and solves a field's d components as d scalar columns.
L does not depend on the state, so a spring system builds its solver once
and every solve on the system (the atomistic reference, the sensitivities of
a full sampling, each Newton step of a cell stack) shares it.

``compile_system`` keeps two memos: ``_SYSTEMS``, weak-keyed by the model,
holds its systems (law, operator and all they cache); ``_STRUCTURES``,
weak-keyed by the lattice, holds only the ``BondStructure`` (sites, bonds,
incidence, block rows) of each ordered list of bond classes, which every model
that differs only in its bond laws shares: a system is exactly such a
structure and its law, ``BondSystem(structure, law)``.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .lattice import Multilattice, cell_index
from .potential import InteractionModel, PotentialError, energies_or_inf

#: PCG stops once the relative residual ||r|| / ||b|| is at most PCG_RTOL ...
PCG_RTOL = 1e-13
#: ... or once the normwise backward error ||r|| / (||H||_inf ||x|| + ||b||) is
#: at most PCG_BACKWARD_TOL (the rounding floor of stiff fine lattices)
PCG_BACKWARD_TOL = 1e-15
#: PCG iterations before a solve fails with SolverError
PCG_MAX_ITER = 1000
#: twice the unit roundoff of float64
EPS = float(np.finfo(float).eps)
#: a line search takes a trial that rises by at most RISE_TOL (1 + |base|), halving down to MIN_STEP
RISE_TOL, MIN_STEP = 1e-14, 2.0**-30


class SolverError(RuntimeError):
    """Newton iteration failed to converge or hit a singular operator, or a
    dynamics run blew up."""


class BondStructure:
    """What the bonds of a compiled system fix, whatever their laws: the
    periodic torus ``cells`` of ``n_sites`` sites, the bonds (``src``,
    ``dst``, ``rvec``), their CSR ``incidence`` with its widest row, and the
    Hessian's block rows, built on first use.  Systems whose models differ
    only in their bond laws share one (``compile_system``)."""

    def __init__(self, n_sites: int, src: np.ndarray, dst: np.ndarray, rvec: np.ndarray,
                 cells: tuple[int, ...]) -> None:
        self.n_sites, self.src, self.dst, self.rvec = n_sites, src, dst, rvec
        self.cells = tuple(cells)
        self.n_cells = int(np.prod(self.cells))
        self.incidence = incidence_matrix(n_sites, src, dst)
        indptr = self.incidence.indptr
        self.row_width = int((indptr[1:] - indptr[:-1]).max())   # the most terms _scatter sums into a site

    @cached_property
    def block_rows(self) -> tuple["BlockRows", np.ndarray, np.ndarray]:
        """The Hessian's ``BlockRows``: a site's row is its diagonal block, then
        one per other end of its incident bonds in incidence order (ends met
        twice share one).  Then the blocks that the four terms of each class add
        to, in a cell (n_classes, 4) and for each bond in the grid (n_classes, n_cells, 4)."""
        m, D = self.n_sites // self.n_cells, self.incidence
        columns = [list(dict.fromkeys([a] + list(self.src[bonds] + self.dst[bonds] - a)))
                   for a, bonds in enumerate(np.split(D.indices[:D.indptr[m]], D.indptr[1:m]))]
        rows = BlockRows(self.cells, columns)
        block = {(x, y): lo + j for x, (lo, ends) in enumerate(zip(rows.start, columns)) for j, y in enumerate(ends)}
        # the bond of each class from cell 0 (a -> e), and a seen from e's cell
        a, e = self.src[::self.n_cells], self.dst[::self.n_cells]
        back = cell_index([-x for x in np.unravel_index(e // m, self.cells)], self.cells) * m + a
        blocks = np.array([[block[i, i], block[j, j], block[i, f], block[j, k]]
                           for i, j, f, k in zip(a, e % m, e, back)])
        cell = np.stack([self.src, self.dst, self.src, self.dst], axis=-1).reshape(len(blocks), -1, 4) // m
        return rows, blocks, (cell * len(rows.species) + blocks[:, None]).astype(np.int32)


class BondSystem:
    """Compiled bond list of an interaction model on a periodic site torus:
    a shared ``BondStructure`` and one bond law for all its bonds.

    ``law`` holds the per-bond parameters of every bond, so each evaluation is
    one law call.  ``gaps``, ``energy``, ``bond_forces``, ``gradient`` and
    ``stress`` also take a stack of fields w (T, n_sites, d) with gradients
    F (T, d, d) and return one result per stack entry.  ``cells`` is the
    periodic grid of Bravais cells; sites are numbered by
    ``Multilattice.site_index`` (C order over ``cells``, species-minor).  The
    bonds come class by class, ``n_cells`` per class in cell order, and the
    bonds of a class share their source species, target species and cell
    offset (the layout of ``compile_system``); the block rows of the Hessian
    rely on it, laid out once from cell 0.
    """

    def __init__(self, structure: BondStructure, law) -> None:
        self.structure, self.law = structure, law
        self.n_sites, self.src, self.dst, self.rvec = structure.n_sites, structure.src, structure.dst, structure.rvec
        self.cells, self.n_cells = structure.cells, structure.n_cells
        self.incidence, self.row_width = structure.incidence, structure.row_width
        self.d = self.rvec.shape[-1]
        self.n_dof = self.n_sites * self.d

    def take(self, rows) -> "BondSystem":
        """The system of the law entries ``rows`` (a ``ModelStack``'s) on the
        same structure; itself for a law with no entry axis."""
        law = self.law.take(rows)
        return self if law is self.law else BondSystem(self.structure, law)

    # ------------------------------------------------------------- evaluation

    def gaps(self, w: np.ndarray, F: np.ndarray | None = None) -> np.ndarray:
        # np.take keeps stacked gaps C-contiguous, so the per-entry bond sums
        # downstream round exactly like those of a single field
        g = np.take(w, self.dst, axis=-2) - np.take(w, self.src, axis=-2)
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
        """Riesz gradient from per-bond forces: +phi' at dst, -phi' at src.

        The bond axis of (..., n_bonds, d) forces moves to the front through
        transposed views, so one field is scattered without a copy."""
        k = per_bond.ndim - 2
        flat = per_bond.transpose(k, *range(k), k + 1).reshape(len(self.src), -1)
        out = (self.incidence @ flat).reshape(self.n_sites, *per_bond.shape[:k], per_bond.shape[-1])
        return out.transpose(*range(1, k + 1), 0, k + 1)

    def gradient(self, w: np.ndarray, F: np.ndarray | None = None) -> np.ndarray:
        return self._scatter(self.bond_forces(w, F))

    def stress(self, w: np.ndarray, F: np.ndarray | None = None) -> np.ndarray:
        """Averaged first Piola-type stress < sum_r phi'_r r^T >, shape (..., d, d)."""
        forces = self.bond_forces(w, F)
        return np.swapaxes(forces, -1, -2) @ self.rvec / self.n_sites

    def affine_force(self, w: np.ndarray, F: np.ndarray | None, G: np.ndarray) -> np.ndarray:
        """Riesz representer of v -> < sum_r phi''_r (G r), D_r v >, shape (..., n_sites, d).

        This is the right-hand side of the sensitivity (tangent) problem for a
        perturbation of the imposed gradient in direction G (d, d), or in each
        direction of a stack G (..., d, d) at one evaluation of phi''.  A stack
        of states w (T, n_sites, d) takes every direction at every entry.
        """
        k = self.bond_stiffness(w, F)
        gr = self.rvec @ np.swapaxes(np.atleast_2d(G), -1, -2)
        if k.ndim > 3:
            k = np.expand_dims(k, tuple(range(1, gr.ndim - 1)))
        return self._scatter(np.einsum("...bij,...bj->...bi", k, gr))

    def scalar_stiffness(self, w: np.ndarray, F: np.ndarray | None = None) -> np.ndarray | None:
        """c_b per bond, shape (..., n_bonds), when every phi''_b is c_b I (a law
        with ``scalar_hess``, such as springs); None for any other law."""
        scalar = getattr(self.law, "scalar_hess", None)
        return None if scalar is None else scalar(self.gaps(w, F), self.rvec)

    def hessian(self, w: np.ndarray, F: np.ndarray | None = None):
        """Riesz Hessian: on a one-cell torus the dense stack (T, n_dof, n_dof) of
        a field's (T = 1) or a stack's stencils; on a grid of cells the CSR
        matrix of one field or a stack of one (a longer stack raises SolverError)."""
        return self._matrix(self.bond_stiffness(w, F))[0]

    def operator(self, w: np.ndarray, F: np.ndarray | None = None) -> "GaugeFixedOperator":
        """The solver of the Riesz Hessian at w (as ``hessian`` takes it), and
        the one place that picks scalar or vector: with a scalar stiffness
        c_b I it holds the graph Laplacian L of H = L (x) I_d, one DOF per
        site; otherwise the full Hessian.  A quadratic law's Hessian does not
        depend on the state, so its system returns one operator, built once at
        w = 0, for every w and F, which on one cell serves a stack of fields
        with one inverse."""
        if not self.law.is_quadratic:
            return self._operator(w, F)
        self._one_field(int(np.prod(np.broadcast_shapes(w.shape[:-2], np.shape(F)[:-2]))))
        return self._state_free_operator

    @cached_property
    def _state_free_operator(self) -> "GaugeFixedOperator":
        return self._operator(np.zeros((self.n_sites, self.d)))

    def _operator(self, w: np.ndarray, F: np.ndarray | None = None) -> "GaugeFixedOperator":
        c = self.scalar_stiffness(w, F)
        k = self.bond_stiffness(w, F) if c is None else c[..., None, None]
        H, stencil = self._matrix(k)
        return GaugeFixedOperator(H, k.shape[-1], stencil)

    def _one_field(self, T: int) -> None:
        """Refuse a stack of T > 1 Hessians on a grid of cells."""
        if T > 1 and self.n_cells > 1:
            raise SolverError(f"a stack of {T} Hessians on the grid of cells {self.cells}: one field only")

    def _matrix(self, k: np.ndarray) -> tuple:
        """(Hessian, stencil) from per-bond blocks k (..., n_bonds, b, b), b = d or 1:
        one sum adds k, k, -k, -k to each bond's (src, src), (dst, dst), (src, dst)
        and (dst, src) blocks, bond by bond in class order, into the block rows.
        On one cell their mean is the dense Hessian stack (stencil None)."""
        b, T = k.shape[-1], int(np.prod(k.shape[:-3]))
        self._one_field(T)
        rows, blocks, index = self.structure.block_rows
        place = rows.positions(b)[0]
        data, k = np.zeros((T, self.n_cells, place.size)), k.reshape(T, -1, b, b)
        for r, c in np.ndindex(b, b):       # one unbuffered sum per block component
            at = index if b == 1 else b * b * (index - blocks[:, None]) + place[r, blocks, c][:, None]
            if T > 1:                       # entry t's rows follow entry t - 1's
                at = at + data[0].size * np.arange(T)[:, None, None, None]
            np.add.at(data.reshape(-1), at.ravel(), (k[:, :, r, c, None] * [1.0, 1.0, -1.0, -1.0]).ravel())
        if self.n_cells == 1:
            return rows.stencil(data, b).reshape(T, self.n_sites * b, -1), None
        return rows.matrix(data[0], b), rows.stencil(data[0], b)


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


#: per model: its compiled systems by cells per dimension.  Models are
#: immutable once compiled.
_SYSTEMS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
#: per lattice: its ``BondStructure`` per bond classes (the ordered (species,
#: ``NeighborOffset``) pairs of ``bond_specs``).  Structure only, never a law.
_STRUCTURES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def compile_system(lattice: Multilattice, model: InteractionModel) -> BondSystem:
    """The bond list of ``model`` on ``lattice`` (bond class by bond class,
    each over all cells) from the offsets its ``bond_specs`` hold resolved, so
    the lattice must carry the model's species shifts.

    The bond laws come from ``bond_specs`` at the lattice's cell
    multi-indices, so a model with site-dependent coefficients compiles the
    corner subgrid of its own grid.  The system is then fixed by the model and
    the cells per dimension: it is compiled once per pair and returned on
    every later call (``_SYSTEMS``).  Its structure is fixed by the lattice
    and the bond classes, and lives as long as the lattice (a ``unit_cell``
    for the whole process): a later model of those classes on that lattice,
    such as springs of other coefficients, stacks only its law
    (``_STRUCTURES``).
    """
    if tuple(map(tuple, model.shifts())) != lattice.shifts:
        raise PotentialError("model and lattice are incompatible: their species shifts differ")
    systems = _SYSTEMS.setdefault(model, {})
    n = lattice.cells_per_dim
    if n not in systems:
        species, offsets, laws = zip(*[(alpha, spec.offset, spec.law) for alpha in range(lattice.m)
                                       for spec in model.bond_specs(alpha, lattice.cell_multi)])
        structures = _STRUCTURES.setdefault(lattice, {})
        key = tuple(zip(species, offsets))
        if key not in structures:
            shift = np.array([off.cell_shift for off in offsets])[:, None, :]
            target = np.array([off.species_target for off in offsets])[:, None]
            structures[key] = BondStructure(
                n_sites=lattice.n_sites,
                src=lattice.site_index(lattice.cell_multi, np.array(species)[:, None]).ravel(),
                dst=lattice.site_index(lattice.cell_multi + shift, target).ravel(),
                rvec=np.repeat([off.r_float for off in offsets], lattice.n_cells, axis=0),
                cells=(n,) * lattice.d,
            )
        systems[n] = BondSystem(structures[key], type(laws[0]).stack(laws, [lattice.n_cells] * len(laws)))
    return systems[n]


# ------------------------------------------------------------- linear algebra


def avg_norm(v: np.ndarray):
    """Discrete L2 norm sqrt(<|v|^2>) over sites: a float, or one per stack entry."""
    squares = np.add.reduce(np.atleast_2d(v) ** 2, axis=-1)
    out = np.sqrt(np.add.reduce(squares, axis=-1) / squares.shape[-1])   # np.mean, without its overhead
    return float(out) if np.ndim(out) == 0 else out


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of v (k, n): np.linalg.norm(v, axis=1), without its conj copy."""
    return np.sqrt(np.add.reduce(v * v, axis=1))


def project_zero_mean_array(w: np.ndarray) -> np.ndarray:
    """Subtract the site mean (of each stack entry)."""
    return w - np.add.reduce(w, axis=-2, keepdims=True) / w.shape[-2]   # w.mean, without its overhead


class BlockRows:
    """Per-cell block rows of an operator that couples every cell of the
    periodic grid ``cells`` alike (m sites per cell, cell-major), whose cell
    mean is its stencil.  ``columns`` lists per species the sites (cell offset
    * m + species) its row in cell 0 couples to, each once.  At block size b a
    cell's data is its sites' rows in turn, each (b, blocks, b) in CSR order,
    indexed in int32 (a grid's rows hold fewer than 2^31 entries)."""

    def __init__(self, cells: tuple[int, ...], columns: list) -> None:
        self.cells, self.m, self._positions = tuple(cells), len(columns), {}
        self.start = np.cumsum([0] + [len(c) for c in columns])     # per species: its first block
        self.species = np.repeat(np.arange(self.m), np.diff(self.start))
        self.delta, self.beta = np.divmod(np.concatenate(columns), self.m)
        ahead = zip(np.ix_(*map(np.arange, self.cells)), np.unravel_index(self.delta, self.cells))
        #: the column site of every block of every cell, (n_cells, n_blocks): block [delta] reaches cell + delta
        self.sites = (cell_index([x[..., None] + y for x, y in ahead], self.cells).reshape(-1, len(self.delta))
                      * self.m + self.beta).astype(np.int32)

    def positions(self, b: int) -> tuple[np.ndarray, np.ndarray]:
        """Where each entry (r, block, c) at block size b, (b, n_blocks, b),
        sits in a cell's data and in the flat stencil."""
        if b not in self._positions:
            first, r, c = self.start[self.species], np.arange(b)[:, None], np.arange(b)
            row = b * first + r * np.diff(self.start)[self.species] + np.arange(len(first)) - first
            at = ((self.delta * self.m + self.species) * b + r) * (self.m * b) + self.beta * b
            self._positions[b] = b * row[:, :, None] + c, at[:, :, None] + c
        return self._positions[b]

    def matrix(self, data: np.ndarray, b: int) -> sp.csr_matrix:
        """The CSR matrix of the cells' rows ``data`` (n_cells, b b n_blocks)
        at block size b, or of one cell's rows (1, b b n_blocks) in every cell."""
        n_cells = len(self.sites)
        indices = np.empty((n_cells, data.shape[-1]), dtype=np.int32)
        for lo, hi in zip(self.start[:-1], self.start[1:]):    # b copies of a species' columns
            cols = b * self.sites[:, lo:hi, None] + np.arange(b, dtype=np.int32)
            indices[:, b * b * lo:b * b * hi].reshape(n_cells, b, -1)[...] = cols.reshape(n_cells, 1, -1)
        widths = np.tile(np.repeat(b * np.diff(self.start), b), n_cells)
        indptr = np.concatenate([[0], np.cumsum(widths)]).astype(np.int32)
        data = np.broadcast_to(data, indices.shape).ravel()
        return sp.csr_matrix((data, indices.ravel(), indptr), shape=(len(widths),) * 2)

    def stencil(self, data: np.ndarray, b: int) -> np.ndarray:
        """The cell mean of the rows ``data`` (..., n_cells or 1, b b n_blocks),
        the grid average of their operator: ... + cells + (m b, m b), block
        [delta] coupling a cell to the cell delta further on."""
        place, at = self.positions(b)
        S = np.zeros(data.shape[:-2] + (len(self.sites) * (self.m * b) ** 2,))
        S[..., at] = (data.sum(axis=-2) / data.shape[-2])[..., place]
        return S.reshape(data.shape[:-2] + self.cells + (self.m * b,) * 2)


def _circulant_inverse(S: np.ndarray, d: int) -> np.ndarray:
    """Inverse symbol of a grid-averaged stencil, one block per rfft wavevector.

    S (cells + (b, b)) averages a Hessian's b x b blocks per periodic cell
    offset (exactly H when H is block-circulant), the cell mean of the rows
    of ``BlockRows``: block [delta] couples a cell to the cell delta further
    on.  Its symbol S^(k) = sum_delta S[delta] e^{2 pi i k.delta/N}
    is inverted block by block.  At k = 0 the d translations are projected out, so the
    inverse maps onto zero-mean fields.  Returns shape ``(b, b) + rfft grid``.
    """
    b = S.shape[-1]
    axes = tuple(range(S.ndim - 2))
    # S is real, so its symbol is the conjugate of its forward transform
    sym = np.conj(np.fft.rfftn(S, axes=axes))
    trans = np.tile(np.eye(d), (b // d, 1)) / np.sqrt(b // d)   # orthonormal translations
    kernel = trans @ trans.T
    zero = (0,) * len(axes)
    sym[zero] += max(np.abs(sym[zero]).max(), 1.0) * kernel
    try:
        inv = np.linalg.inv(sym)
    except np.linalg.LinAlgError as exc:
        raise SolverError("averaged stiffness is singular beyond the translation kernel") from exc
    proj = np.eye(b) - kernel
    inv[zero] = proj @ inv[zero] @ proj
    return np.ascontiguousarray(np.moveaxis(inv, (-2, -1), (0, 1)))


class GaugeFixedOperator:
    """Linear solver for Riesz Hessians with the constant fields in the kernel.

    ``H`` has blocks of ``d`` DOF per site, and ``solve`` also takes fields of
    c d components per site against H (x) I_c, as one stack: the scalar
    Laplacian of a spring system (d = 1) solves its fields of any dimension.
    The type of ``H`` picks the path.  A dense stack (T, n_dof, n_dof) of
    the distinct Hessians of a stack of fields (those of a one-cell system,
    or the one Hessian of a quadratic law, which serves a stack of any size)
    goes through batched LAPACK: a rank-d regularization on the constant
    modes, one inverse per Hessian, one refinement step.  A sparse H (a
    system on a grid of cells, or a macro stiffness) goes, at any size,
    through CG preconditioned by the inverse of its grid-averaged ``stencil``
    (cells + (b, b), the cell mean of the ``BlockRows`` rows that H is; exact
    for block-circulant H); a dense stack takes None.  Either way the
    solution is the zero-mean field, and a failure raises SolverError naming
    its cause.
    """

    def __init__(self, H, d: int, stencil: np.ndarray | None) -> None:
        self.d = d
        self.n_dof = H.shape[-1]
        self.n_sites = self.n_dof // d
        if isinstance(H, np.ndarray):
            self._H = H
            scale = np.maximum(np.abs(np.diagonal(H, axis1=-2, axis2=-1)).mean(axis=-1), 1.0)
            modes = np.tile(np.eye(d), (self.n_sites, 1)) / np.sqrt(self.n_sites)   # translations
            try:
                self._dense = np.linalg.inv(H + scale[:, None, None] * (modes @ modes.T))[:, None]
            except np.linalg.LinAlgError as exc:
                raise SolverError("singular stiffness beyond the translation kernel") from exc
        else:
            self._dense = None
            self._H = H.tocsr()
            self.cells = stencil.shape[:-2]
            b = stencil.shape[-1]
            if int(np.prod(self.cells)) * b != self.n_dof or b % d:
                raise SolverError(f"grid {self.cells} does not fit {self.n_dof} DOF in blocks of {d}")
            self._inv = _circulant_inverse(stencil, d)
            # row sums in row order, as H's own product with ones sums them
            self._h_inf = float(np.add.reduceat(np.abs(self._H.data), self._H.indptr[:-1]).max())

    def _dense_solve(self, B: np.ndarray) -> np.ndarray:
        """Dense solve of right-hand sides B (T, k, n_dof) with one refinement step, which
        keeps the step accurate for stiff entries (fine lattices scale like 1/eps^2)."""
        x = (self._dense @ B[..., None])[..., 0]
        x = project_zero_mean_array(x.reshape(x.shape[:-1] + (self.n_sites, self.d))).reshape(x.shape)
        Hx = (self._H[:, None] * x[..., None, :]).sum(axis=-1)
        return x + (self._dense @ (B - Hx)[..., None])[..., 0]

    def _precondition(self, R: np.ndarray) -> np.ndarray:
        """Apply the inverse grid-averaged stiffness to a stack R (k, n_dof)."""
        k, b = len(R), len(self._inv)
        axes = tuple(range(-len(self.cells), 0))
        grid = np.moveaxis(R.reshape((k,) + self.cells + (b,)), -1, 1)   # (k, b, *cells)
        F = np.fft.rfftn(grid, axes=axes)
        Z = self._inv[:, 0] * F[:, None, 0]
        for c in range(1, b):
            Z += self._inv[:, c] * F[:, None, c]
        return np.moveaxis(np.fft.irfftn(Z, s=self.cells, axes=axes), 1, -1).reshape(k, -1)

    def _pcg(self, B: np.ndarray) -> np.ndarray:
        """Preconditioned CG on a stack of zero-mean right-hand sides B (k, n_dof);
        an entry leaves the iteration once it meets PCG_RTOL or PCG_BACKWARD_TOL,
        before its residual is preconditioned.  H multiplies one column at a
        time, which sums each row in stored order as a product with the stack would."""
        X = np.zeros_like(B)
        b_norm = _norms(B)
        rows = np.arange(len(B))                # stack entries still iterating
        x = np.zeros_like(B)
        r = B.copy()
        p = rz = None
        it = 0
        while True:
            r_norm = _norms(r)
            floor = PCG_BACKWARD_TOL * (self._h_inf * _norms(x) + b_norm[rows])
            done = (r_norm <= PCG_RTOL * b_norm[rows]) | (r_norm <= floor)
            if done.any():
                X[rows[done]] = x[done]
                keep = ~done
                rows, x, r, r_norm = rows[keep], x[keep], r[keep], r_norm[keep]
                if not len(rows):
                    return X
                if p is not None:
                    p, rz = p[keep], rz[keep]
            rel = float(np.max(r_norm / b_norm[rows]))
            if it == PCG_MAX_ITER:
                raise SolverError(f"PCG did not converge: relative residual {rel:.3e} "
                                  f"after {it} iterations")
            z = self._precondition(r)
            rz_new = np.sum(r * z, axis=1)
            if p is None:
                p = z
            else:
                p *= (rz_new / rz)[:, None]
                p += z
            rz = rz_new
            Hp = np.stack([self._H @ q for q in p])
            pHp = np.sum(p * Hp, axis=1)
            if not np.all(pHp > 0):
                raise SolverError(f"PCG met non-positive curvature p.Hp = {pHp.min():.3e} at "
                                  f"iteration {it} (relative residual {rel:.3e})")
            alpha = (rz / pHp)[:, None]
            x += alpha * p
            r -= alpha * Hp
            it += 1

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (H (x) I_c) x = rhs for one field (n_sites, c d) or a stack
        (k, n_sites, c d), with a leading axis T for a dense stack; returns
        zero-mean fields.  The c axis joins the stack: one solve of c k columns."""
        c = rhs.shape[-1] // self.d
        cols = rhs.reshape(rhs.shape[:-1] + (self.d, c)).swapaxes(-1, -2).swapaxes(-2, -3)
        cols = np.ascontiguousarray(cols)   # (..., c, n_sites, d): each column sums as it does alone
        if self._dense is not None:
            X = self._dense_solve(cols.reshape(len(self._dense), -1, self.n_dof))
        else:
            X = self._pcg(project_zero_mean_array(cols).reshape(-1, self.n_dof))
        X = project_zero_mean_array(X.reshape(cols.shape))
        return X.swapaxes(-3, -2).swapaxes(-2, -1).reshape(rhs.shape)


@dataclass
class NewtonResult:
    w: np.ndarray
    residual: float     # the worst final float residual over the stack, which may exceed the threshold by its band
    iterations: int     # Newton steps summed over the stack entries


def newton(evaluate, w0: np.ndarray, threshold, max_iter: int = 50) -> NewtonResult:
    """Zero-mean Newton iteration: the one nonlinear solver of the package.

    ``w0`` is a stack (T, n, d) of independent problems.  ``evaluate(w, rows)``
    takes the fields w (k, n, d) of the entries ``rows`` and returns three
    functions of no argument, each computing only when called: the
    objectives (k,), the Riesz gradients with the rounding band (k,) of each
    (or a float for all), and the ``GaugeFixedOperator`` of the Hessians.
    Entry t leaves once avg_norm(gradient) <= ``threshold`` (a float or one
    per entry) plus its band: a residual inside the rounding of its own sums
    is a backward error at the floor, as in PCG.  Its step is halved until
    its objective does not rise, and a trial that raises PotentialError is a
    rise of the entries whose bonds collapsed.  Each iterate is evaluated
    once: the trial of a line-search round in which every entry took its
    step is the next iterate, evaluation included, and the stack is
    evaluated afresh only after a round that split it or once some entries
    have converged.
    """
    w = project_zero_mean_array(np.array(w0, dtype=float))
    T = len(w)
    threshold = np.broadcast_to(threshold, (T,))
    res, active, steps = np.zeros(T), np.arange(T), 0
    evaluation, base = evaluate(w.copy(), active), None
    for it in range(max_iter + 1):
        energy, gradient, operator = evaluation
        g, band = gradient()
        res[active] = avg_norm(g)
        keep = ~(res[active] <= threshold[active] + band)
        active, g = active[keep], g[keep]
        if not len(active):
            return NewtonResult(w, float(res.max()), steps)
        if it == max_iter:
            break
        wa = w[active]
        if len(active) < len(keep):
            (energy, _, operator), base = evaluate(wa, active), None
        step = operator().solve(-g)
        base = np.asarray(energy(), dtype=float) if base is None else base
        bound = base + RISE_TOL * (1 + np.abs(base))
        lam, pending, size, evaluation = np.ones(len(active)), np.arange(len(active)), 1.0, None
        while len(pending):   # halve the steps of the entries whose objective rose
            if size <= MIN_STEP:
                raise SolverError(f"line search failed on {len(pending)} of {T} entries "
                                  "(bond collapse or ascent direction)")
            trial, trial_evaluation = _trial(evaluate, project_zero_mean_array(wa[pending] + size * step[pending]),
                                             active[pending])
            rose = ~(trial <= bound[pending])
            if len(pending) == len(active) and not rose.any():
                evaluation, base = trial_evaluation, trial
            pending = pending[rose]
            size *= 0.5
            lam[pending] = size
        # where every entry took one round's step, this is that round's trial, bit for bit
        w[active] = project_zero_mean_array(wa + lam[:, None, None] * step)
        steps += len(active)
        if evaluation is None:
            evaluation, base = evaluate(w[active], active), None
    raise SolverError(f"Newton did not converge: residual {res[active].max():.3e} on {len(active)} "
                      f"of {T} entries after {max_iter} iterations")


def _trial(evaluate, w: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, tuple | None]:
    """The objectives of the trial fields ``w`` of ``rows``, inf for the
    entries whose bonds collapse (``energies_or_inf``), and their evaluation,
    which a trial that raised PotentialError does not keep."""
    evaluations = []

    def objectives(x, r):
        evaluations.append(evaluate(x, r))
        return evaluations[-1][0]()

    trial = energies_or_inf(objectives, w, rows)
    return trial, evaluations[0] if len(evaluations) == 1 else None


def rounding_band(system: BondSystem, forces: np.ndarray, f_ext: np.ndarray | None) -> np.ndarray:
    """The rounding band (k,) of the residuals avg_norm(D forces - f_ext) of
    the bond forces (k, n_bonds, d).

    A row of W terms sums with an error of at most (W - 1) u times the sum of
    their magnitudes (u the unit roundoff).  Over the sites that is at most
    (W - 1) u (sqrt(2 W / n_sites) ||forces|| + <|f_ext|>), since each bond
    enters two rows; the band taken, with W in place of W - 1, is over twice that."""
    n, width = system.n_sites, system.row_width
    magnitude = np.sqrt(np.einsum("kbi,kbi->k", forces, forces) * (2.0 * width / n))
    if f_ext is not None:
        width, magnitude = width + 1, magnitude + np.sqrt(np.einsum("ni,ni->", f_ext, f_ext) / n)
    return width * EPS * magnitude


def newton_zero_mean(
    system: BondSystem,
    F: np.ndarray | None = None,
    w0: np.ndarray | None = None,
    f_ext: np.ndarray | None = None,
    tol: float = 1e-12,
    ref=0.0,
) -> NewtonResult:
    """Find the zero-mean critical point of E(w; F) - <f_ext, w> with ``newton``.

    ``F`` is None, one gradient (d, d), or a stack (T, d, d) of independent
    problems, for which ``w0`` and the result are (T, n_sites, d); a law with
    an entry axis has one entry per problem, and each iterate reads the
    entries of its rows (``BondSystem.take``).  Entry t
    converges once sqrt(<|gradient|^2>) <= ``tol * (1 + ref_t)`` plus the
    rounding band of its per-site sums (``rounding_band``), so an entry whose
    bond forces are too large for its float residual to reach the threshold
    does not stall; quadratic energies converge in one iteration.
    """
    stacked = np.ndim(F) == 3
    Fs = None if F is None else np.asarray(F, dtype=float).reshape(-1, system.d, system.d)
    shape = (len(Fs) if stacked else 1, system.n_sites, system.d)
    threshold = np.broadcast_to(tol * (1.0 + np.asarray(ref)), shape[:1])

    def evaluate(w, rows):
        F, live = None if Fs is None else Fs[rows], system.take(rows)   # each entry keeps its own law

        def energy():
            e = live.energy(w, F)
            return e if f_ext is None else e - np.mean(np.sum(f_ext * w, axis=-1), axis=-1)

        def gradient():
            forces = live.bond_forces(w, F)
            g = live._scatter(forces)
            return (g if f_ext is None else g - f_ext), rounding_band(live, forces, f_ext)

        return energy, gradient, lambda: live.operator(w, F)

    result = newton(evaluate, np.zeros(shape) if w0 is None else np.reshape(w0, shape), threshold)
    return result if stacked else NewtonResult(result.w[0], result.residual, result.iterations)
