"""Homogenized quasicontinuum solver: macro Newton over per-element microproblems.

Each macro element T carries a sampling domain (one lattice period for
crystals, an N_rep^d subgrid for random networks).  Constrained by the affine
extension of u^h on T, the microproblem relaxes a zero-mean periodic corrector
on the sampling domain; correctors are stored per unit macro length (chi
variables), so the physical corrector is eps * chi and the bond gaps are

    D_r R_T(u^h) = F r + chi[neighbor] - chi[site],   F = grad u^h|_T.

HQC is the macro P1 problem of an element energy density Phi that the micro
problems evaluate: ``HQCOperator.phi0``, ``dphi0`` and ``d2phi0`` give Phi,
its stress and the condensed tangent over the stack of element gradients, and
``macro_newton`` solves for any such density (``homog``'s FEM is the same
solve over the exact cell problem).  The micro system of a sampling (one
period, or n_rep cells per dimension) is the model's compiled system on that
many cells, the one homogenization (one period) and the atomistic reference
(n_rep = N) use; its effective tensors are kept per system, so every operator
on one model and sampling shares both, whatever its mesh and relax value.
The route follows the bond law of the micro system.  A quadratic law, whose
stiffness must be psi I, takes the tensor route (``conductance_tensors``): d
scalar sensitivities on the graph Laplacian, solved as one stack, and the
effective tensor A_ijkl = delta_ik a_jl, one tangent for all elements, whose
macro stiffness ``assemble`` builds block-circulant from its stencil.  Any
other law solves the microproblems of all elements as one stack, each from
zero (``micro_solve``, one stacked ``network.newton``), and
``micro_sensitivity`` and ``condensed_tangent`` take the same stack.  No
micro state is kept between evaluations, so the macro energy is a function of
u^h alone.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .fem import (
    MacroMesh,
    P1Field,
    all_element_gradients,
    assemble,
    check_alignment,
    load_from_lattice,
    nodal_forces,
    p1_zero_mean,
    scatter_to_vertices,
    site_elements,
)
from .lattice import LatticeField, Multilattice, unit_cell
from .network import (
    BondSystem,
    GaugeFixedOperator,
    NewtonResult,
    SolverError,
    compile_system,
    newton,
    newton_zero_mean,
    project_zero_mean_array,
)
from .potential import InteractionModel

MICRO_TOL = 1e-12


class HQCError(SolverError):
    pass


class SamplingDomain(NamedTuple):
    """Sampling domain of one macro element: a small periodic site torus."""

    torus: Multilattice
    parent_cells: np.ndarray        # flat parent cell per torus cell
    parent_sites: np.ndarray        # flat parent site per torus site


def nearest_bravais_cells(mesh: MacroMesh, eps: Fraction, n_cells: int) -> np.ndarray:
    """Bravais cell nearest each element barycenter, shape (n_elements, d).

    Exact integer arithmetic: with corner indices summing to S on the 1/n grid
    the barycenter is S / (n (d+1)), so for eps = p/q the nearest cell is
    floor(S q / (n (d+1) p) + 1/2), minus one on an exact half-distance tie
    (ties go to the smaller coordinate).
    """
    S = mesh.corners.sum(axis=1)
    p, q = eps.numerator, eps.denominator
    den = 2 * mesh.n * (mesh.d + 1) * p
    num = 2 * S * q + mesh.n * (mesh.d + 1) * p
    return (num // den - (num % den == 0)) % n_cells


def place_sampling_domains(
    mesh: MacroMesh, lattice: Multilattice, n_rep: int | None = None
) -> list[SamplingDomain]:
    """One sampling domain per element, placed at the Bravais site nearest the
    element barycenter (exact rational arithmetic, ties toward smaller coordinates).

    ``n_rep`` selects subgrid sampling of n_rep^d Bravais cells for simple
    lattices (random networks); the default is one lattice period (crystals).
    Subgrid domains do not depend on the element, so every element gets the
    one shared domain; with n_rep equal to the cells per dimension the subgrid
    is the whole lattice in site order.
    """
    check_alignment(mesh, lattice)
    d = lattice.d
    N = lattice.cells_per_dim
    m = lattice.m
    if n_rep is None:
        torus = unit_cell(d, lattice.shifts)
        reps = nearest_bravais_cells(mesh, lattice.eps, N)
        sites = lattice.site_index(reps[:, None, :], np.arange(m))  # (T, m)
        return [SamplingDomain(torus, row[:1] // m, row) for row in sites]
    if m != 1:
        raise HQCError("subgrid sampling domains require a simple lattice (m = 1)")
    if not 1 <= n_rep <= N:
        raise HQCError(f"n_rep must be between 1 and {N}")
    # one subsystem shared by all elements: below n_rep = N its effective
    # response replaces the (unknown) full-sample tensor, so the error floors
    # at an n_rep-dependent level
    torus = Multilattice(d, Fraction(1, int(n_rep)), lattice.shifts)
    parent_cells = lattice.site_index(torus.cell_multi)  # m = 1: one site per cell
    return [SamplingDomain(torus, parent_cells, parent_cells)] * mesh.n_elements


def _require_cell_independent(model: InteractionModel, cells: np.ndarray) -> None:
    """Period sampling serves every element with the model's cell system,
    compiled at cell 0: refuse a model with a bond-law parameter that differs
    between cell 0 and the elements' ``cells`` (multi-indices (n, d); a 0-d
    parameter cannot)."""
    cells = np.concatenate([np.zeros((1, model.d), dtype=int), cells])
    for alpha in range(model.m):
        for spec in model.bond_specs(alpha, cells):
            if any(np.ndim(v) and np.any(v != np.ravel(v)[0]) for v in vars(spec.law).values()):
                raise HQCError("bond law varies by cell: period sampling (n_rep=None) "
                               "needs a crystal; pass n_rep for subgrid sampling")


def micro_solve(system: BondSystem, grads: np.ndarray) -> np.ndarray:
    """Zero-mean micro correctors (chi variables) at gradients (T, d, d), shape
    (T, n_sites, d): one stacked Newton from zero, tolerance MICRO_TOL (1 + |F_t|)."""
    return newton_zero_mean(system, F=grads, tol=MICRO_TOL, ref=np.linalg.norm(grads, axis=(1, 2))).w


def micro_sensitivity(system: BondSystem, chi: np.ndarray, F: np.ndarray | None) -> np.ndarray:
    """Unit-gradient sensitivity fields at converged micro states.

    Solves the linearized microproblem for each unit imposed gradient E_ij,
    all d^2 right-hand sides of all entries as one solve; sensitivities for
    arbitrary macro basis functions follow by linearity.  Shape (d, d, n_sites,
    d), with a leading axis T for a stack chi (T, n_sites, d), F (T, d, d).
    """
    d = system.d
    rhs = -system.affine_force(chi, F, np.eye(d * d).reshape(d * d, d, d))
    return system.operator(chi, F).solve(rhs).reshape(chi.shape[:-2] + (d, d) + chi.shape[-2:])


def condensed_tangent(system: BondSystem, chi: np.ndarray, F: np.ndarray | None,
                      sens: np.ndarray | None) -> np.ndarray:
    """Element tangent A[i,j,k,l] = < (E_ij r + D S_ij) . V'' . (E_kl r + D S_kl) >
    of one micro state, or of each entry of a stack (T, d, d, d, d).

    With ``sens=None`` the correction is dropped, which yields the Cauchy-Born
    (affine closure) tangent.
    """
    d = system.d
    k = system.bond_stiffness(chi, F)
    gaps = system.rvec @ np.swapaxes(np.eye(d * d).reshape(d, d, d, d), -1, -2)
    if sens is not None:
        gaps = gaps + system.gaps(sens)
    return np.einsum("...ijbx,...bxy,...klby->...ijkl", gaps, k, gaps) / system.n_sites


def conductance_tensors(system: BondSystem, relax: bool) -> tuple[np.ndarray | None, np.ndarray]:
    """Unit-gradient sensitivities s and effective tensor a of a quadratic
    system at rest whose stiffness is psi_b I per bond.

    The sensitivity of the unit gradient E_ij is e_i s_j, with the scalar
    field s_j the zero-mean solution of L s_j = -D(psi r_j), L the scalar
    Laplacian; s (n_sites, d) holds s_j in column j, all d solved as one
    stack.  The condensed tangent is A_ijkl = delta_ik a_jl with
    a_jl = < psi (r_j + D s_j)(r_l + D s_l) >.  With ``relax=False`` s is None
    and a_jl = < psi r_j r_l >, the Cauchy-Born tensor.  A law whose stiffness
    is not scalar is refused.
    """
    d = system.d
    zero = np.zeros((system.n_sites, d))
    psi = system.scalar_stiffness(zero)
    if psi is None:
        raise HQCError(f"quadratic bond law {type(system.law).__name__} has no scalar stiffness "
                       "(scalar_hess): the tensor route needs a stiffness psi I")
    # a quadratic law's force at the gap r is psi r: column j of this gradient is D(psi r_j)
    s = system.operator(zero).solve(-system.gradient(zero, np.eye(d))) if relax else None
    g = system.gaps(zero if s is None else s, np.eye(d))   # r_j + D s_j in column j
    return s, np.einsum("bj,b,bl->jl", g, psi, g) / system.n_sites


def macro_newton(mesh: MacroMesh, density, load: np.ndarray | None,
                 tol: float) -> tuple[P1Field, NewtonResult]:
    """Outer Newton from u^h = 0 for the critical point of
    sum_T |T| Phi(grad u^h|_T) - load . u^h over zero-mean P1 fields; returns
    the zero-mean macro field and the result.

    ``density`` gives Phi over a stack of element gradients (n_el, d, d):
    ``phi0`` (n_el,), ``dphi0`` (n_el, d, d) and ``d2phi0``, per element or
    one tangent (d, d, d, d) for all; ``volumes @``, ``nodal_forces`` and
    ``assemble`` make them the energy, residual and Newton operator.  The
    macro equation lives on zero-mean test functions, so the constant
    component of the residual minus the load is dropped (the load's sampling
    averages need not vanish domain by domain).  Converges once the Euclidean
    norm of that residual is at most ``tol * (1 + ||load||)``; ``newton``
    measures the vertex-averaged norm, so the threshold is divided by
    sqrt(n_vertices).
    """
    b = np.zeros((mesh.n_vertices, mesh.d)) if load is None else np.asarray(load, dtype=float)
    threshold = tol * (1.0 + float(np.linalg.norm(b))) / np.sqrt(mesh.n_vertices)

    def grads(u):
        return all_element_gradients(P1Field(mesh, u[0]))

    def gradient(u, _):
        return project_zero_mean_array(nodal_forces(mesh, density.dphi0(grads(u))) - b)[None], 0.0

    def operator(u, _):
        K, S = assemble(mesh, density.d2phi0(grads(u)))
        return GaugeFixedOperator(K, mesh.d, S)

    result = newton(lambda u, _: [float(mesh.volumes @ density.phi0(grads(u))) - float(np.sum(b * u[0]))],
                    gradient, operator, np.zeros_like(b)[None], threshold)
    return p1_zero_mean(P1Field(mesh, result.w[0])), result


#: per micro system: {relax: (s, a)} of ``conductance_tensors``
_TENSORS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class HQCOperator:
    """Macro energy, gradient, Hessian, and load assembly for the HQC method.

    ``relax=False`` freezes the correctors at zero (pure Cauchy-Born closure).
    All sampling domains of a placement share one micro ``system``, the
    model's compiled system on the sampling's cells, and every operator on one
    model and sampling shares it and its effective tensors (``_TENSORS``).
    Period sampling takes the model's cell system (compiled at cell 0) and is
    refused for a model whose bond laws vary by cell.  A nonlinear law with
    relaxed correctors on a subgrid of several cells is refused on more than
    one element: its tangents need a stack of grid Hessians.  The operator is
    a density for ``macro_newton`` (``phi0``, ``dphi0``, ``d2phi0``), and only
    these and ``correctors`` tell the routes apart: a quadratic bond law takes
    the tensor route, one tangent for all elements; otherwise the correctors
    of all elements are one stack, each from the zero guess.  ``energy``,
    ``gradient``, ``element_tangents`` and ``hessian`` compose the density
    with the P1 layer.  No micro state is kept, so every value depends on the
    arguments alone.
    """

    def __init__(
        self,
        model: InteractionModel,
        lattice: Multilattice,
        mesh: MacroMesh,
        n_rep: int | None = None,
        relax: bool = True,
    ) -> None:
        self.model = model
        self.lattice = lattice
        self.mesh = mesh
        self.relax = relax
        self.n_rep = n_rep
        self.domains = place_sampling_domains(mesh, lattice, n_rep)
        if n_rep is None:
            cells = np.concatenate([dom.parent_cells for dom in self.domains])
            _require_cell_independent(model, lattice.cell_multi[cells])
        self.system = compile_system(self.domains[0].torus, model)
        if relax and not self.system.law.is_quadratic and self.system.n_cells > 1 and mesh.n_elements > 1:
            raise HQCError(f"subgrid sampling (n_rep={n_rep}) of a nonlinear law on {mesh.n_elements} "
                           "elements: stacks of grid Hessians wait for ROADMAP item 4")
        self._tensors = _TENSORS.setdefault(self.system, {})

    # ------------------------------------------------------------- micro layer

    def _quad_data(self) -> tuple[np.ndarray | None, np.ndarray]:
        """The scalar sensitivities s (n_sites, d) and the tensor a (d, d) of a
        quadratic system, ``conductance_tensors`` (Cauchy-Born when correctors
        are frozen)."""
        if self.relax not in self._tensors:
            self._tensors[self.relax] = conductance_tensors(self.system, self.relax)
        return self._tensors[self.relax]

    def correctors(self, grads: np.ndarray) -> np.ndarray:
        """Zero-mean correctors of all elements at gradients (n_el, d, d), shape
        (n_el, n_sites, d).

        A quadratic bond law contracts the scalar sensitivities,
        chi[:, x] = F[x, j] s_j; any other runs ``micro_solve``.
        """
        system = self.system
        if not self.relax:
            return np.zeros((len(grads), system.n_sites, system.d))
        if system.law.is_quadratic:
            return np.einsum("txj,nj->tnx", grads, self._quad_data()[0])
        return micro_solve(system, grads)

    def phi0(self, grads: np.ndarray) -> np.ndarray:
        """Element energy densities (n_el,) at gradients (n_el, d, d): 1/2 F:(F a)
        on the tensor route, otherwise the micro energy at the correctors."""
        if self.system.law.is_quadratic:
            return 0.5 * np.einsum("tij,tij->t", grads, self.dphi0(grads))
        return self.system.energy(self.correctors(grads), grads)

    def dphi0(self, grads: np.ndarray) -> np.ndarray:
        """Element stresses (n_el, d, d): F a on the tensor route, otherwise the
        sensitivity-free micro stress at the correctors."""
        if self.system.law.is_quadratic:
            return np.einsum("til,jl->tij", grads, self._quad_data()[1])
        return self.system.stress(self.correctors(grads), grads)

    def d2phi0(self, grads: np.ndarray) -> np.ndarray:
        """Element tangents: on the tensor route the one tangent
        A_ijkl = delta_ik a_jl (d, d, d, d) shared by all elements, otherwise
        the condensed tangents of the correctors (n_el, d, d, d, d)."""
        if self.system.law.is_quadratic:
            return np.einsum("ik,jl->ijkl", np.eye(self.mesh.d), self._quad_data()[1])
        chi = self.correctors(grads)
        sens = micro_sensitivity(self.system, chi, grads) if self.relax else None
        return condensed_tangent(self.system, chi, grads, sens)

    # ------------------------------------------------------------- macro layer

    def energy(self, uh: P1Field) -> float:
        return float(self.mesh.volumes @ self.phi0(all_element_gradients(uh)))

    def gradient(self, uh: P1Field) -> np.ndarray:
        """Nodal residual of the macro energy, the stress form of ``dphi0``."""
        return nodal_forces(self.mesh, self.dphi0(all_element_gradients(uh)))

    def element_tangents(self, uh: P1Field) -> np.ndarray:
        A = self.d2phi0(all_element_gradients(uh))
        return np.broadcast_to(A, (self.mesh.n_elements,) + A.shape[-4:])

    def hessian(self, uh: P1Field):
        """The P1 tangent that the Newton steps of ``solve`` use, a CSR matrix."""
        return assemble(self.mesh, self.d2phi0(all_element_gradients(uh)))[0]

    @cached_property
    def site_map(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per lattice site: owner element and offset from the owner's first
        vertex (``site_elements``), and site of the owner's sampling torus."""
        lat = self.lattice
        owner, _, rel = site_elements(self.mesh, lat)
        return owner, rel, self.domains[0].torus.site_index(lat.site_cells(), lat.site_species())

    def rhs(self, f: LatticeField) -> np.ndarray:
        """Load vector F^hqc: per-element sampling-domain averages of f against hats.

        A full-lattice domain on every element (volumes summing to 1) is the
        exact lattice pairing ``load_from_lattice``.  A subgrid below the full
        lattice is shared by all elements and samples f near the origin only,
        so it has no load of its own.
        """
        mesh = self.mesh
        if self.n_rep == self.lattice.cells_per_dim:
            return load_from_lattice(mesh, f)
        if self.n_rep is not None:
            raise HQCError(f"subgrid sampling (n_rep={self.n_rep}) has no per-element load; "
                           "pair the operator with fem.load_from_lattice")
        # every period domain's m sites in element order, weighted by |T| / m
        m = self.lattice.m
        sites = np.concatenate([dom.parent_sites for dom in self.domains])
        weight = np.repeat(mesh.volumes / m, m)
        elems, lam, _ = site_elements(mesh, self.lattice, sites)
        w = lam[:, :, None] * f.values[sites][:, None, :] * weight[:, None, None]
        return scatter_to_vertices(mesh, mesh.elements[elems].ravel(), w.reshape(-1, mesh.d))

    # ------------------------------------------------------------------ solve

    def solve(self, load: np.ndarray | None = None, tol: float = 1e-10) -> "HQCSolution":
        """``macro_newton`` on the HQC energy."""
        macro, result = macro_newton(self.mesh, self, load, tol)
        return HQCSolution(macro=macro, operator=self, residual=result.residual,
                           iterations=result.iterations)


@dataclass
class HQCSolution:
    """Converged macro field of an operator.

    ``residual`` is the site-averaged norm sqrt(<|g|^2>) of the projected macro
    residual g over the mesh vertices, as measured by ``network.newton``.
    """

    macro: P1Field
    operator: HQCOperator
    residual: float
    iterations: int = 0


# ------------------------------------------------------------- reconstruction


def reconstruct(op: HQCOperator, uh: P1Field) -> LatticeField:
    """Lattice-resolution field u^{h,c} of the macro field ``uh``: at every site,
    the affine part of its owner element plus the periodic tiling of that
    element's corrector."""
    owner, rel, torus_site = op.site_map
    grads = all_element_gradients(uh)
    chi = op.correctors(grads)
    u0 = uh.values[op.mesh.elements[owner, 0]]
    lin = u0 + (grads[owner] @ rel[:, :, None])[:, :, 0]
    return LatticeField(op.lattice, lin + op.lattice.eps_float * chi[owner, torus_site])


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
    op = HQCOperator(model, lattice, mesh, n_rep=n_rep, relax=relax)
    load = op.rhs(f) if f is not None else None
    return op.solve(load=load, tol=tol)
