"""Homogenized quasicontinuum solver: macro Newton over per-element microproblems.

Each macro element T carries a sampling domain (one lattice period for
crystals, an N_rep^d subgrid for random networks).  Constrained by the affine
extension of u^h on T, the microproblem relaxes a zero-mean periodic corrector
on the sampling domain; correctors are stored per unit macro length (chi
variables), so the physical corrector is eps * chi and the bond gaps are

    D_r R_T(u^h) = F r + chi[neighbor] - chi[site],   F = grad u^h|_T.

The element energy density, its stress, and the condensed tangent then feed a
standard P1 assembly.  Quadratic models shortcut through per-domain effective
tensors computed from unit-gradient correctors (cached per model, so every
mesh on one lattice shares them) and contract them over all elements at once;
the generic path checks the warm-started correctors of all elements in one
stacked residual evaluation and runs a Newton solve only where it fails.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .fem import (
    MacroMesh,
    P1Field,
    all_element_gradients,
    assemble,
    barycentric_weights,
    check_alignment,
    load_from_lattice,
    locate,
    nodal_forces,
    p1_zero_mean,
)
from .lattice import LatticeField, Multilattice
from .network import (
    BondSystem,
    GaugeFixedOperator,
    SolverError,
    avg_norm,
    compile_system,
    newton,
    newton_zero_mean,
    project_zero_mean_array,
)
from .potential import InteractionModel

MICRO_TOL = 1e-12
BOUNDARY_SNAP_TOL = 1e-9


class HQCError(SolverError):
    pass


class SamplingDomain(NamedTuple):
    """Sampling domain of one macro element: a small periodic site torus."""

    element: int
    rep_cell: tuple[int, ...]       # Bravais cell of the representative site
    anchor: tuple[int, ...]         # parent cell mapped to torus cell (0, ..., 0)
    torus: Multilattice
    parent_cells: np.ndarray        # flat parent cell per torus cell
    parent_sites: np.ndarray        # flat parent site per torus site
    signature: tuple                # domains with equal signatures share systems


def nearest_bravais_cells(mesh: MacroMesh, eps: Fraction, n_cells: int) -> np.ndarray:
    """Bravais cell nearest each element barycenter, shape (n_elements, d).

    Exact integer arithmetic: with corner indices summing to S on the 1/n grid
    the barycenter is S / (n (d+1)), so for eps = p/q the nearest cell is
    floor(S q / (n (d+1) p) + 1/2), minus one on an exact half-distance tie
    (ties go to the smaller coordinate).
    """
    S = np.rint(mesh.el_coords * mesh.n).astype(np.int64).sum(axis=1)
    p, q = eps.numerator, eps.denominator
    den = 2 * mesh.n * (mesh.d + 1) * p
    num = 2 * S * q + mesh.n * (mesh.d + 1) * p
    return (num // den - (num % den == 0)) % n_cells


def place_sampling_domains(
    mesh: MacroMesh, lattice: Multilattice, n_rep: int | None = None
) -> list[SamplingDomain]:
    """One sampling domain per element, anchored at the Bravais site nearest the
    element barycenter (exact rational arithmetic, ties toward smaller coordinates).

    ``n_rep`` selects subgrid sampling of n_rep^d Bravais cells for simple
    lattices (random networks); the default is one lattice period (crystals).
    Subgrid domains do not depend on the element, so they all share one pair
    of index arrays.
    """
    check_alignment(mesh, lattice)
    if mesh.h < lattice.eps_float * (1 - 1e-12):
        raise HQCError("macro elements must be at least one lattice period wide (h >= eps)")
    d = lattice.d
    N = lattice.cells_per_dim
    m = lattice.m
    reps = nearest_bravais_cells(mesh, lattice.eps, N)
    rep_cells = [tuple(r) for r in reps.tolist()]
    if n_rep is None:
        torus = Multilattice(d, 1, lattice.shifts)
        flat = np.ravel_multi_index(tuple(reps.T), (N,) * d)
        sites = flat[:, None] * m + np.arange(m)
        return [
            SamplingDomain(t, rep, rep, torus, flat[t:t + 1], sites[t], ("period",))
            for t, rep in enumerate(rep_cells)
        ]
    if m != 1:
        raise HQCError("subgrid sampling domains require a simple lattice (m = 1)")
    if not 1 <= n_rep <= N:
        raise HQCError(f"n_rep must be between 1 and {N}")
    torus = Multilattice(d, Fraction(1, int(n_rep)), lattice.shifts)
    if int(n_rep) == N:
        # the subgrid is the whole lattice; placement is immaterial
        parent_cells = np.arange(lattice.n_cells)
        signature = ("full",)
    else:
        # one representative subsystem shared by all elements: its effective
        # response replaces the (unknown) full-sample tensor, so the error
        # floors at an n_rep-dependent level
        parent_cells = np.ravel_multi_index(tuple(torus._cell_multi.T), (N,) * d)
        signature = ("sub", int(n_rep))
    parent_sites = parent_cells  # one site per cell (m = 1)
    anchor = (0,) * d
    return [
        SamplingDomain(t, rep, anchor, torus, parent_cells, parent_sites, signature)
        for t, rep in enumerate(rep_cells)
    ]


class MicroStates(NamedTuple):
    """Micro states of all elements of an operator, stacked along the first axis."""

    F: np.ndarray                       # element gradients (n_el, d, d)
    chi: np.ndarray                     # zero-mean correctors per unit macro length (n_el, n, d)
    residual: np.ndarray                # sqrt(<|micro gradient|^2>) per element (n_el,)


def micro_solve(
    system: BondSystem,
    F: np.ndarray,
    guess: np.ndarray | None = None,
    tol: float = MICRO_TOL,
) -> np.ndarray:
    """Zero-mean micro corrector under the imposed gradient F (chi variables)."""
    return newton_zero_mean(system, F=F, w0=guess, tol=tol, ref=float(np.linalg.norm(F))).w


def micro_sensitivity(system: BondSystem, chi: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Unit-gradient sensitivity fields at a converged micro state.

    Solves the linearized microproblem for each unit imposed gradient E_ij,
    all d^2 right-hand sides as one stacked solve; sensitivities for arbitrary
    macro basis functions follow by linearity.
    """
    d = system.d
    n = system.n_sites
    if n == 1:
        return np.zeros((d, d, n, d))
    op = GaugeFixedOperator(system.hessian(chi, F), d, system.cells)
    rhs = np.stack([-system.affine_force(chi, F, G) for G in np.eye(d * d).reshape(d * d, d, d)])
    return op.solve(rhs).reshape(d, d, n, d)


def condensed_tangent(system: BondSystem, chi: np.ndarray, F: np.ndarray | None,
                      sens: np.ndarray | None) -> np.ndarray:
    """Element tangent A[i,j,k,l] = < (E_ij r + D S_ij) . V'' . (E_kl r + D S_kl) >.

    With ``sens=None`` the correction is dropped, which yields the Cauchy-Born
    (affine closure) tangent.
    """
    d = system.d
    k = system.bond_stiffness(chi, F)
    nb = len(system.src)
    gaps = np.zeros((d, d, nb, d))
    for i in range(d):
        for j in range(d):
            G = np.zeros((d, d))
            G[i, j] = 1.0
            g = system.rvec @ G.T
            if sens is not None:
                w = sens[i, j]
                g = g + (w[system.dst] - w[system.src]) / system.gap_scale
            gaps[i, j] = g
    return np.einsum("ijbx,bxy,klby->ijkl", gaps, k, gaps) / system.n_sites


#: per model: (cells_per_dim, signature, relax) -> (sens, A) of a quadratic
#: system; operators on one model and lattice share a single sensitivity solve.
#: Models are treated as immutable once an operator has been built on them.
_EFFECTIVE_TENSORS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class HQCOperator:
    """Macro energy, gradient, Hessian, and load assembly for the HQC method.

    ``relax=False`` freezes the correctors at zero (pure Cauchy-Born closure).
    All sampling domains of a placement share one signature and hence one
    micro ``system``; the correctors of all elements are evaluated as one
    stack.  Micro solves warm-start from the correctors of the last
    ``gradient`` call, the only evaluation that stores them, so line-search
    trials of ``energy`` leave no trace.
    """

    def __init__(
        self,
        model: InteractionModel,
        lattice: Multilattice,
        mesh: MacroMesh,
        n_rep: int | None = None,
        relax: bool = True,
        micro_tol: float = MICRO_TOL,
    ) -> None:
        self.model = model
        self.lattice = lattice
        self.mesh = mesh
        self.relax = relax
        self.micro_tol = micro_tol
        self.domains = place_sampling_domains(mesh, lattice, n_rep)
        first = self.domains[0]
        self.signature = first.signature
        self.system = compile_system(first.torus, model, gap_scale=1.0,
                                     parent_cells=first.parent_cells)
        self.warm_chi: np.ndarray | None = None
        self.is_quadratic = bool(getattr(model, "is_quadratic", False))
        self._site_map: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------- micro layer

    def _quad_data(self) -> tuple[np.ndarray | None, np.ndarray]:
        """Unit-gradient sensitivities and the effective tensor of a quadratic
        system (Cauchy-Born tensor when correctors are frozen)."""
        key = (self.lattice.cells_per_dim, self.signature, self.relax)
        cache = _EFFECTIVE_TENSORS.setdefault(self.model, {})
        if key not in cache:
            system = self.system
            zero = np.zeros((system.n_sites, system.d))
            sens = micro_sensitivity(system, zero, None) if self.relax else None
            cache[key] = (sens, condensed_tangent(system, zero, None, sens))
        return cache[key]

    def _element_tensors(self) -> np.ndarray:
        """Effective tensor of every element of a quadratic model, (n_el, d, d, d, d)."""
        return np.repeat(self._quad_data()[1][None], self.mesh.n_elements, axis=0)

    def correctors(self, grads: np.ndarray) -> np.ndarray:
        """Zero-mean correctors of all elements at gradients (n_el, d, d), shape
        (n_el, n_sites, d).

        Nonlinear models project the warm starts to zero mean and check all of
        them in one batched residual evaluation against the test ``newton``
        applies at iteration 0; only elements above it run ``micro_solve``.
        """
        system = self.system
        shape = (len(grads), system.n_sites, system.d)
        if not self.relax:
            return np.zeros(shape)
        if self.is_quadratic:
            return np.einsum("tij,ijnx->tnx", grads, self._quad_data()[0])
        warm = np.zeros(shape) if self.warm_chi is None else self.warm_chi
        chi = project_zero_mean_array(warm)
        residual = avg_norm(system.gradient(chi, grads))
        threshold = self.micro_tol * (1.0 + np.linalg.norm(grads, axis=(1, 2)))
        for t in np.flatnonzero(residual > threshold):
            chi[t] = micro_solve(system, grads[t], guess=warm[t], tol=self.micro_tol)
        return chi

    def element_states(self, uh: P1Field) -> MicroStates:
        grads = all_element_gradients(uh)
        chi = self.correctors(grads)
        return MicroStates(grads, chi, avg_norm(self.system.gradient(chi, grads)))

    # ------------------------------------------------------------- macro layer

    def energy(self, uh: P1Field) -> float:
        grads = all_element_gradients(uh)
        if self.is_quadratic:
            P = np.einsum("tijkl,tkl->tij", self._element_tensors(), grads)
            return 0.5 * float(np.einsum("t,tij,tij->", self.mesh.volumes, grads, P))
        return float(self.mesh.volumes @ self.system.energy(self.correctors(grads), grads))

    def gradient(self, uh: P1Field) -> np.ndarray:
        """Nodal residual of the macro energy (sensitivity-free stress form);
        stores the element correctors as the next warm starts."""
        grads = all_element_gradients(uh)
        if self.is_quadratic:
            P = np.einsum("tijkl,tkl->tij", self._element_tensors(), grads)
        else:
            self.warm_chi = chi = self.correctors(grads)
            P = self.system.stress(chi, grads)
        return nodal_forces(self.mesh, P)

    def element_tangents(self, uh: P1Field) -> np.ndarray:
        if self.is_quadratic:
            return self._element_tensors()
        grads = all_element_gradients(uh)
        chi = self.correctors(grads)
        system = self.system
        d = self.mesh.d
        out = np.zeros((self.mesh.n_elements, d, d, d, d))
        for t, F in enumerate(grads):
            sens = micro_sensitivity(system, chi[t], F) if self.relax else None
            out[t] = condensed_tangent(system, chi[t], F, sens)
        return out

    def site_map(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per lattice site: owner element, offset from the owner's first
        vertex, and site of the owner's sampling torus (computed once)."""
        if self._site_map is None:
            lat, mesh = self.lattice, self.mesh
            pos = lat.site_positions()
            owner = owner_elements(mesh, pos)
            rel = np.mod(pos - mesh.el_coords[owner, 0], 1.0)
            anchors = np.array([dom.anchor for dom in self.domains], dtype=int)
            n_torus = self.domains[0].torus.cells_per_dim
            cells = np.mod(lat.site_cells() - anchors[owner], n_torus)
            flat = np.ravel_multi_index(tuple(cells.T), (n_torus,) * lat.d)
            self._site_map = (owner, rel, flat * lat.m + lat.site_species())
        return self._site_map

    def hessian(self, uh: P1Field) -> sp.csr_matrix:
        return assemble(self.mesh, self.element_tangents(uh))

    def rhs(self, f: LatticeField) -> np.ndarray:
        """Load vector F^hqc: per-element sampling-domain averages of f against hats.

        A full-lattice domain on every element (volumes summing to 1) is the
        exact lattice pairing ``load_from_lattice``.
        """
        mesh = self.mesh
        if self.signature == ("full",):
            return load_from_lattice(mesh, f)
        b = np.zeros((mesh.n_vertices, mesh.d))
        pos = self.lattice.site_positions()
        for dom in self.domains:
            pts = pos[dom.parent_sites]
            fvals = f.values[dom.parent_sites]
            elems = locate(mesh, pts)
            lam = barycentric_weights(mesh, pts, elems)
            nodes = mesh.elements[elems]
            w = lam[:, :, None] * fvals[:, None, :] * (mesh.volumes[dom.element] / len(pts))
            np.add.at(b, nodes.ravel(), w.reshape(-1, mesh.d))
        return b

    # ------------------------------------------------------------------ solve

    def solve(self, load: np.ndarray | None = None, tol: float = 1e-10) -> "HQCSolution":
        """Outer Newton from u^h = 0 on the macro residual; micro states
        warm-start across iterations.  The final macro field is projected to
        zero mean.

        Converges once the Euclidean norm of the nodal residual is at most
        ``tol * (1 + ||load||)``; ``newton`` measures the vertex-averaged norm,
        so the threshold is divided by sqrt(n_vertices).
        """
        mesh = self.mesh
        u0 = np.zeros((mesh.n_vertices, mesh.d))
        b = np.zeros_like(u0) if load is None else np.asarray(load, dtype=float)

        def energy(u):
            return self.energy(P1Field(mesh, u)) - float(np.sum(b * u))

        def gradient(u):
            # the macro equation lives on zero-mean test functions: drop the
            # constant component of the assembled residual (the load's sampling
            # averages need not vanish domain by domain)
            return project_zero_mean_array(self.gradient(P1Field(mesh, u)) - b)

        threshold = tol * (1.0 + float(np.linalg.norm(b))) / np.sqrt(mesh.n_vertices)
        result = newton(energy, gradient, lambda u: self.hessian(P1Field(mesh, u)),
                        u0, (mesh.n,) * mesh.d, threshold)
        return HQCSolution(macro=p1_zero_mean(P1Field(mesh, result.w)), operator=self,
                           residual=result.residual, iterations=result.iterations)


@dataclass
class HQCSolution:
    """Converged macro field; micro states materialize on first access.

    ``residual`` is the site-averaged norm sqrt(<|g|^2>) of the projected macro
    residual g over the mesh vertices, as measured by ``network.newton``.
    """

    macro: P1Field
    operator: HQCOperator
    residual: float
    iterations: int = 0
    reconstructed: LatticeField | None = None
    _micro: MicroStates | None = None

    @property
    def micro(self) -> MicroStates:
        if self._micro is None:
            self._micro = self.operator.element_states(self.macro)
        return self._micro


# ------------------------------------------------------------- reconstruction


def owner_elements(mesh: MacroMesh, points: np.ndarray) -> np.ndarray:
    """Deterministic element ownership: interior points by location, boundary
    points by the containing element with lexicographically smallest barycenter."""
    pts = np.atleast_2d(np.mod(points, 1.0))
    owners = locate(mesh, pts)
    n = mesh.n
    scaled = pts * n
    frac = scaled - np.floor(scaled)
    on_axis = np.minimum(frac, 1.0 - frac) <= BOUNDARY_SNAP_TOL * n
    boundary = on_axis.any(axis=1)
    if mesh.d == 2:
        boundary |= np.abs(frac[:, 0] - frac[:, 1]) <= BOUNDARY_SNAP_TOL * n
    bary = mesh.barycenters()
    order = np.lexsort(bary.T[::-1])  # elements sorted by barycenter, lexicographically
    rank = np.empty(mesh.n_elements, dtype=int)
    rank[order] = np.arange(mesh.n_elements)
    for p in np.nonzero(boundary)[0]:
        candidates = _containing_elements(mesh, pts[p])
        owners[p] = min(candidates, key=lambda t: rank[t])
    return owners


def _containing_elements(mesh: MacroMesh, point: np.ndarray) -> list[int]:
    n = mesh.n
    base = np.floor(point * n).astype(int)
    cells = []
    for shift in np.ndindex(*(3,) * mesh.d):
        cells.append((base + np.array(shift) - 1) % n)
    candidates = set()
    for cell in cells:
        if mesh.d == 1:
            candidates.add(int(cell[0]))
        else:
            flat = 2 * (int(cell[0]) * n + int(cell[1]))
            candidates.update((flat, flat + 1))
    found = []
    for t in candidates:
        lam = barycentric_weights(mesh, point[None, :], np.array([t]))[0]
        # wrap distances: a point belongs to t if all barycentric weights are
        # in [0,1] up to snap tolerance within the element's periodic frame
        if np.all(lam >= -BOUNDARY_SNAP_TOL * n) and np.all(lam <= 1 + BOUNDARY_SNAP_TOL * n):
            found.append(t)
    return found if found else [int(locate(mesh, point[None, :])[0])]


def reconstruct(solution: HQCSolution) -> LatticeField:
    """Lattice-resolution field u^{h,c}: at every site, the affine part of its
    owner element plus the periodic tiling of that element's corrector."""
    op = solution.operator
    owner, rel, torus_site = op.site_map()
    grads = all_element_gradients(solution.macro)
    # only the correctors: micro states would also evaluate residuals, on
    # every macro step of a dynamics run
    chi = op.correctors(grads)
    u0 = solution.macro.values[op.mesh.elements[owner, 0]]
    lin = u0 + (grads[owner] @ rel[:, :, None])[:, :, 0]
    result = LatticeField(op.lattice, lin + op.lattice.eps_float * chi[owner, torus_site])
    solution.reconstructed = result
    return result


# --------------------------------------------------------- module-level API


def solve_hqc(
    model,
    lattice,
    mesh,
    f: LatticeField | None = None,
    n_rep: int | None = None,
    tol: float = 1e-10,
    relax: bool = True,
) -> HQCSolution:
    op = HQCOperator(model, lattice, mesh, n_rep=n_rep, relax=relax,
                     micro_tol=min(MICRO_TOL, 0.01 * tol))
    load = op.rhs(f) if f is not None else None
    return op.solve(load=load, tol=tol)
