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
the generic path runs a per element Newton with warm starts.
"""

from __future__ import annotations

import threading
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


@dataclass
class MicroState:
    """Micro corrector of one element and its residual sqrt(<|gradient|^2>)."""

    domain: SamplingDomain
    F: np.ndarray
    chi: np.ndarray                     # zero-mean corrector per unit macro length
    residual: float


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

    Solves the linearized microproblem for each unit imposed gradient E_ij;
    sensitivities for arbitrary macro basis functions follow by linearity.
    """
    d = system.d
    n = system.n_sites
    out = np.zeros((d, d, n, d))
    if n * d <= d:
        return out
    op = GaugeFixedOperator(system.hessian(chi, F), d)
    for i in range(d):
        for j in range(d):
            G = np.zeros((d, d))
            G[i, j] = 1.0
            out[i, j] = op.solve(-system.affine_force(chi, F, G))
    return out


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
#: The lock makes rows running in threads wait for a solve already under way.
_EFFECTIVE_TENSORS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_EFFECTIVE_LOCK = threading.Lock()


class HQCOperator:
    """Macro energy, gradient, Hessian, and load assembly for the HQC method.

    ``relax=False`` freezes the correctors at zero (pure Cauchy-Born closure).
    Micro solves warm-start from the correctors of the last ``gradient`` call,
    the only evaluation that stores them, so line-search trials of ``energy``
    leave no trace.
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
        self.systems: dict[tuple, BondSystem] = {}
        for dom in self.domains:
            if dom.signature not in self.systems:
                self.systems[dom.signature] = compile_system(
                    dom.torus, model, gap_scale=1.0, parent_cells=dom.parent_cells
                )
        ids = {sig: k for k, sig in enumerate(self.systems)}
        self._sig_index = np.array([ids[dom.signature] for dom in self.domains])
        self.warm_chi: dict[int, np.ndarray] = {}
        self.is_quadratic = bool(getattr(model, "is_quadratic", False))

    # ------------------------------------------------------------- micro layer

    def _quad_data(self, sig: tuple) -> tuple[np.ndarray | None, np.ndarray]:
        """Unit-gradient sensitivities and the effective tensor of a quadratic
        system (Cauchy-Born tensor when correctors are frozen)."""
        key = (self.lattice.cells_per_dim, sig, self.relax)
        with _EFFECTIVE_LOCK:
            cache = _EFFECTIVE_TENSORS.setdefault(self.model, {})
            if key not in cache:
                system = self.systems[sig]
                zero = np.zeros((system.n_sites, system.d))
                sens = micro_sensitivity(system, zero, None) if self.relax else None
                cache[key] = (sens, condensed_tangent(system, zero, None, sens))
            return cache[key]

    def _element_tensors(self) -> np.ndarray:
        """Effective tensor of every element of a quadratic model, (n_el, d, d, d, d)."""
        A = np.stack([self._quad_data(sig)[1] for sig in self.systems])
        return A[self._sig_index]

    def element_chi(self, t: int, F: np.ndarray) -> np.ndarray:
        """Corrector of element t at gradient F, warm-started from the stored one."""
        dom = self.domains[t]
        system = self.systems[dom.signature]
        if not self.relax:
            return np.zeros((system.n_sites, system.d))
        if self.is_quadratic:
            sens, _ = self._quad_data(dom.signature)
            return np.einsum("ij,ijnx->nx", F, sens)
        return micro_solve(system, F, guess=self.warm_chi.get(t), tol=self.micro_tol)

    def element_states(self, uh: P1Field) -> list[MicroState]:
        grads = all_element_gradients(uh)
        states = []
        for t, dom in enumerate(self.domains):
            F = grads[t]
            chi = self.element_chi(t, F)
            res = avg_norm(self.systems[dom.signature].gradient(chi, F))
            states.append(MicroState(dom, F.copy(), chi, res))
        return states

    # ------------------------------------------------------------- macro layer

    def energy(self, uh: P1Field) -> float:
        grads = all_element_gradients(uh)
        if self.is_quadratic:
            P = np.einsum("tijkl,tkl->tij", self._element_tensors(), grads)
            return 0.5 * float(np.einsum("t,tij,tij->", self.mesh.volumes, grads, P))
        e = np.empty(self.mesh.n_elements)
        for t, dom in enumerate(self.domains):
            chi = self.element_chi(t, grads[t])
            e[t] = self.systems[dom.signature].energy(chi, grads[t])
        return float(self.mesh.volumes @ e)

    def gradient(self, uh: P1Field) -> np.ndarray:
        """Nodal residual of the macro energy (sensitivity-free stress form);
        stores the element correctors as the next warm starts."""
        grads = all_element_gradients(uh)
        if self.is_quadratic:
            P = np.einsum("tijkl,tkl->tij", self._element_tensors(), grads)
        else:
            P = np.empty_like(grads)
            for t, dom in enumerate(self.domains):
                self.warm_chi[t] = chi = self.element_chi(t, grads[t])
                P[t] = self.systems[dom.signature].stress(chi, grads[t])
        return nodal_forces(self.mesh, P)

    def element_tangents(self, uh: P1Field) -> np.ndarray:
        if self.is_quadratic:
            return self._element_tensors()
        grads = all_element_gradients(uh)
        d = self.mesh.d
        out = np.zeros((self.mesh.n_elements, d, d, d, d))
        for t, dom in enumerate(self.domains):
            system = self.systems[dom.signature]
            F = grads[t]
            chi = self.element_chi(t, F)
            sens = micro_sensitivity(system, chi, F) if self.relax else None
            out[t] = condensed_tangent(system, chi, F, sens)
        return out

    def hessian(self, uh: P1Field) -> sp.csr_matrix:
        return assemble(self.mesh, self.element_tangents(uh))

    def rhs(self, f: LatticeField) -> np.ndarray:
        """Load vector F^hqc: per-element sampling-domain averages of f against hats."""
        mesh = self.mesh
        b = np.zeros((mesh.n_vertices, mesh.d))
        pos = self.lattice.site_positions()
        full_volume = 0.0
        for dom in self.domains:
            if dom.signature == ("full",):
                full_volume += mesh.volumes[dom.element]
                continue
            pts = pos[dom.parent_sites]
            fvals = f.values[dom.parent_sites]
            elems = locate(mesh, pts)
            lam = barycentric_weights(mesh, pts, elems)
            nodes = mesh.elements[elems]
            w = lam[:, :, None] * fvals[:, None, :] * (mesh.volumes[dom.element] / len(pts))
            np.add.at(b, nodes.ravel(), w.reshape(-1, mesh.d))
        if full_volume > 0.0:
            elems = locate(mesh, pos)
            lam = barycentric_weights(mesh, pos, elems)
            nodes = mesh.elements[elems]
            w = lam[:, :, None] * f.values[:, None, :] * (full_volume / self.lattice.n_sites)
            np.add.at(b, nodes.ravel(), w.reshape(-1, mesh.d))
        return b

    # ------------------------------------------------------------------ solve

    def solve(
        self,
        load: np.ndarray | None = None,
        u0: P1Field | None = None,
        tol: float = 1e-10,
        max_outer: int = 50,
    ) -> "HQCSolution":
        """Outer Newton on the macro residual; micro states warm-start across
        iterations.  The final macro field is projected to zero mean.

        Converges once the Euclidean norm of the nodal residual is at most
        ``tol * (1 + ||load||)``; ``newton`` measures the vertex-averaged norm,
        so the threshold is divided by sqrt(n_vertices).
        """
        mesh = self.mesh
        u0 = np.zeros((mesh.n_vertices, mesh.d)) if u0 is None else u0.values
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
                        u0, mesh.d, threshold, max_outer)
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
    _micro: dict[int, MicroState] | None = None

    @property
    def micro(self) -> dict[int, MicroState]:
        if self._micro is None:
            states = self.operator.element_states(self.macro)
            self._micro = {st.domain.element: st for st in states}
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
    """Lattice-resolution field u^{h,c}: per element, the affine part plus the
    periodic tiling of the element's corrector over its interior sites."""
    op = solution.operator
    lat = op.lattice
    mesh = op.mesh
    pos = lat.site_positions()
    owners = owner_elements(mesh, pos)
    cells = lat.site_cells()
    species = lat.site_species()
    out = np.empty((lat.n_sites, lat.d))
    grads = all_element_gradients(solution.macro)
    for t in range(mesh.n_elements):
        mask = owners == t
        if not mask.any():
            continue
        # only the corrector: micro states would also evaluate a residual per
        # element, on every macro step of a dynamics run
        dom = op.domains[t]
        chi = op.element_chi(t, grads[t])
        x0 = mesh.el_coords[t, 0]
        u0 = solution.macro.values[mesh.elements[t, 0]]
        rel = np.mod(pos[mask] - x0, 1.0)
        lin = u0[None, :] + rel @ grads[t].T
        tc = np.mod(cells[mask] - np.asarray(dom.anchor, dtype=int), dom.torus.cells_per_dim)
        flat = np.zeros(tc.shape[0], dtype=np.int64)
        for j in range(lat.d):
            flat = flat * dom.torus.cells_per_dim + tc[:, j]
        torus_sites = flat * lat.m + species[mask]
        out[mask] = lin + lat.eps_float * chi[torus_sites]
    result = LatticeField(lat, out)
    solution.reconstructed = result
    return result


# --------------------------------------------------------- module-level API


def hqc_energy(model, lattice, mesh, uh: P1Field, n_rep: int | None = None) -> float:
    return HQCOperator(model, lattice, mesh, n_rep=n_rep).energy(uh)


def affine_closure_energy(model, lattice, mesh, uh: P1Field, n_rep: int | None = None) -> float:
    """Cauchy-Born baseline: the HQC energy with correctors frozen at zero."""
    return HQCOperator(model, lattice, mesh, n_rep=n_rep, relax=False).energy(uh)


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
