"""Conveniences that only the tests use: single-site model evaluation, shift
and corrector gauges, element-wise P1 helpers, and small field and residual
helpers.  They are thin wrappers over the package's stacked routines, kept
here so that the package carries no API without a caller.  The per-spec bond
compile that ``compile_system`` replaced, the COO Hessian build of every
field, a bond-order sum of the dense Hessian, and the grid average of a
matrix's blocks stay here as references of ``BondSystem``'s Hessians and
stencils and of ``fem.assemble``'s stencil.  The atomistic system in
displacement variables, its gaps divided by eps bond by bond, stays as the
reference of the corrector-variable ``atomistic`` routines, and the Verlet
loop that checks the energy at every step as the reference of
``run_atomistic_dynamics``.  The vector route that every system took before
spring systems solved their scalar Laplacian (the full Hessian, d^2 unit
gradients, the general condensed tangent) stays as ``VectorSystem``, the
reference of ``BondSystem.operator`` and ``hqc.conductance_tensors``.  The LJ
chain as it was before pair bonds (one term per directed bond, with the
owner's (s, l), evaluated by powers of b) stays as ``DirectedLJ1D``, the
reference of ``LennardJones1D``.  The LJ law and the incidence scatter as
plain expressions (``PlainLJLaw``, ``moveaxis_scatter``) are the bitwise
references of ``LennardJonesLaw``'s in-place kernels and of
``BondSystem._scatter``; ``HardCoreLaw`` collapses inside a hard core.
The PCG loop as it was before its in-place updates (``reference_pcg``) is
the bitwise reference of ``GaugeFixedOperator._pcg``.  An element search in
exact rational arithmetic (``site_element_oracle``) is the reference of
``fem.site_elements``, and a plain Verlet loop of the HQC macro system
(``every_step_hqc_dynamics``) that of ``run_hqc_dynamics``.  Each entry of a
``ModelStack`` must equal its model alone bit for bit
(``check_stack_entries``), and each trial of a stacked equivalence report
the per-trial report that it replaced (``single_report``)."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from hqclab import mqc, network
from hqclab.atomistic import EquilibriumProblem
from hqclab.dynamics import (
    DynamicState,
    MacroTrajectory,
    Trajectory,
    atomistic_accel,
    atomistic_total_energy,
    lumped_node_masses,
    verlet_step,
)
from hqclab.fem import MacroMesh, P1Field, all_element_gradients, assemble, p1_interpolate_lattice
from hqclab.homog import HomogenizedDensity
from hqclab.hqc import (MICRO_TOL, HQCOperator, condensed_tangent, conductance_tensors, micro_sensitivity,
                        micro_solve, reconstruct)
from hqclab.lattice import (
    ZERO_MEAN_TOL,
    LatticeError,
    LatticeField,
    Multilattice,
    average,
    cell_index,
    l2_norm,
    project_zero_mean,
    unit_cell,
)
from hqclab.network import BondStructure, BondSystem, SolverError, avg_norm, compile_system, newton_zero_mean
from hqclab.potential import (BondLaw, BondSpec, InteractionModel, LennardJonesLaw, LennardJonesParams, ModelStack,
                              PotentialError)

# ------------------------------------------- single-site model evaluation
# gaps: one vector per neighborhood offset of species alpha; cell: a Bravais
# cell multi-index, None for the origin


def _site_gaps(model, alpha: int, gaps) -> list[np.ndarray]:
    specs = model.bond_specs(alpha)
    gaps = [np.atleast_1d(np.asarray(g, dtype=float)) for g in gaps]
    if len(gaps) != len(specs):
        raise PotentialError(f"species {alpha} expects {len(specs)} gaps, got {len(gaps)}")
    return gaps


def site_energy(model, alpha: int, gaps, cell=None) -> float:
    total = 0.0
    for spec, g in zip(model.bond_specs(alpha, cell), _site_gaps(model, alpha, gaps)):
        total += float(spec.law.energy(g[None, :], spec.offset.r_float[None, :])[0])
    return total


def site_gradient(model, alpha: int, gaps, cell=None) -> list[np.ndarray]:
    return [spec.law.grad(g[None, :], spec.offset.r_float[None, :])[0]
            for spec, g in zip(model.bond_specs(alpha, cell), _site_gaps(model, alpha, gaps))]


def site_hessian(model, alpha: int, gaps, cell=None) -> list[list[np.ndarray]]:
    """Blocks V''_{r,rho}; off-diagonal blocks vanish for pairwise models."""
    specs = model.bond_specs(alpha, cell)
    gaps = _site_gaps(model, alpha, gaps)
    d = model.d
    blocks = [[np.zeros((d, d)) for _ in specs] for _ in specs]
    for j, (spec, g) in enumerate(zip(specs, gaps)):
        blocks[j][j] = spec.law.hess(g[None, :], spec.offset.r_float[None, :])[0]
    return blocks


# ------------------------------------------------ directed-bond LJ chain


class DirectedLJLaw(BondLaw):
    """Bond energy s * (-2 (b/l)^-6 + (b/l)^-12) with b = scale * |r + g| and
    per-bond (s, l), its derivatives by powers of b."""

    is_quadratic = False
    params, shared = ("s", "ell"), ("scale",)

    def __init__(self, s, ell, scale: float) -> None:
        self.s = np.asarray(s, dtype=float)
        self.ell = np.asarray(ell, dtype=float)
        self.scale = float(scale)

    def _bond_vectors(self, gaps, rvec):
        vec = self.scale * (rvec + gaps)
        b = np.sqrt(np.sum(vec**2, axis=-1))
        if np.any(b <= 0.0):
            raise PotentialError("bond length collapsed to zero")
        return vec, b

    def _dphi(self, b):
        return 12.0 * self.s * (self.ell**6 * b**-7 - self.ell**12 * b**-13)

    def energy(self, gaps, rvec):
        q = self.ell / self._bond_vectors(gaps, rvec)[1]
        return self.s * (-2.0 * q**6 + q**12)

    def grad(self, gaps, rvec):
        vec, b = self._bond_vectors(gaps, rvec)
        return (self._dphi(b) * self.scale / b)[..., None] * vec

    def hess(self, gaps, rvec):
        vec, b = self._bond_vectors(gaps, rvec)
        dphi = self._dphi(b)
        d2phi = self.s * (-84.0 * self.ell**6 * b**-8 + 156.0 * self.ell**12 * b**-14)
        n = vec / b[..., None]
        nn = n[..., :, None] * n[..., None, :]
        radial = (d2phi * self.scale**2)[..., None, None] * nn
        return radial + (dphi * self.scale**2 / b)[..., None, None] * (np.eye(vec.shape[-1]) - nn)


class DirectedLJ1D(InteractionModel):
    """The LJ chain of ``LennardJones1D`` with one term per directed bond: every
    site lists its neighbors on both sides within the cutoff, each bond with
    the owner's (s, l), so each atom pair appears twice."""

    d = 1

    def __init__(self, params: LennardJonesParams) -> None:
        self.params = params
        self.m = len(params.s)
        cell = unit_cell(1, self.shifts())
        step = Fraction(1, self.m)
        count = int(Fraction(params.cutoff).limit_denominator(10**6) / step)
        offsets = sorted(k * step * sign for k in range(1, count + 1) for sign in (1, -1))
        self._specs = [[BondSpec(cell.resolve_offset(alpha, r),
                                 DirectedLJLaw(params.s[alpha], params.ell[alpha], float(self.m)))
                        for r in offsets] for alpha in range(self.m)]

    def shifts(self) -> list:
        return [(Fraction(k, self.m),) for k in range(self.m)]

    def bond_specs(self, alpha: int, cells=None) -> list[BondSpec]:
        return self._specs[alpha]


# ------------------------------------------------ plain bond kernels


class PlainLJLaw(LennardJonesLaw):
    """``LennardJonesLaw`` as plain expressions, each a fresh array: the
    reference of the in-place kernels, which must equal it bit for bit."""

    def _inverse_square(self, gaps, rvec):
        vec = self.scale * (rvec + gaps)
        b2 = np.sum(vec * vec, axis=-1)
        if np.any(b2 <= 0.0):
            raise PotentialError("bond length collapsed to zero")
        return vec, 1.0 / b2

    def energy(self, gaps, rvec):
        _, q = self._inverse_square(gaps, rvec)
        q3 = q * q * q
        return q3 * (self.a12 * q3 - 2.0 * self.a6)

    def grad(self, gaps, rvec):
        vec, q = self._inverse_square(gaps, rvec)
        q3 = q * q * q
        return (12.0 * self.scale * q3 * q * (self.a6 - self.a12 * q3))[..., None] * vec

    def hess(self, gaps, rvec):
        vec, q = self._inverse_square(gaps, rvec)
        q3 = q * q * q
        q4 = q3 * q
        dphi_b = 12.0 * q4 * (self.a6 - self.a12 * q3)
        d2phi = q4 * (156.0 * self.a12 * q3 - 84.0 * self.a6)
        s2 = self.scale**2
        vv = vec[..., :, None] * vec[..., None, :]
        radial = (s2 * q * (d2phi - dphi_b))[..., None, None] * vv
        return radial + (s2 * dphi_b)[..., None, None] * np.eye(vec.shape[-1])


class HardCoreLaw(LennardJonesLaw):
    """LJ bond that counts as collapsed (PotentialError) below ``core``."""

    params = ("a6", "a12", "core")

    def __init__(self, a6, a12, scale, core):
        super().__init__(a6, a12, scale)
        self.core = np.asarray(core, dtype=float)

    def _inverse_square(self, gaps, rvec):
        vec, q = super()._inverse_square(gaps, rvec)
        if np.any(q * self.core**2 > 1.0):
            raise PotentialError("bond collapsed into the hard core")
        return vec, q


def moveaxis_scatter(system: BondSystem, per_bond: np.ndarray) -> np.ndarray:
    """``BondSystem._scatter`` through ``np.moveaxis``: the reference of its
    transposed views."""
    nb, d = per_bond.shape[-2:]
    lead = per_bond.shape[:-2]
    flat = np.moveaxis(per_bond, -2, 0).reshape(nb, -1)
    out = (system.incidence @ flat).reshape((system.n_sites,) + lead + (d,))
    return np.moveaxis(out, 0, -2)


def bitwise_equal(a, b) -> bool:
    """Same shape and the same float64 bits in every entry (signed zeros and
    NaNs included)."""
    a, b = np.ascontiguousarray(a, dtype=float), np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# ------------------------------------------------------------ entry stacks


def single_report(model, lattice: Multilattice, mesh: MacroMesh, uh: P1Field) -> mqc.EquivalenceReport:
    """The equivalence report of one trial as it was before trial groups: each
    formulation on the model itself, whose laws have no entry axis.  The
    reference of each trial of ``mqc.equivalence_report``'s stacked groups."""
    grads = all_element_gradients(uh)
    q = mqc.solve_shift_vectors(model, grads)
    return mqc.EquivalenceReport(
        e_hqc=float(mesh.volumes @ HQCOperator(model, lattice, mesh).at(grads).phi),
        e_fem=float(mesh.volumes @ HomogenizedDensity(model).phi0(grads)),
        e_mqc=float(np.sum(mesh.volumes * mqc._shift_table(model).energy(grads, q))))


def check_stack_entries(models, F: np.ndarray, w: np.ndarray, q: np.ndarray | None = None) -> None:
    """Assert that entry t of ``ModelStack(models)`` is, bit for bit, the model
    models[t] alone at the gradient F[t] and the cell field w[t] (F (T, d, d),
    w (T, m, d)): the compiled law on the shared structure; energy, gradient
    and stress; the dense Hessian stack and its operator's inverse and solve;
    a quadratic law's conductance tensors; the micro-Newton correctors from
    zero and from w; and the shift-Newton shifts from zero and from the
    guess q (T, m-1, d)."""
    stack = ModelStack(models)
    cell = unit_cell(stack.d, stack.shifts())
    system = compile_system(cell, stack)
    ref = np.linalg.norm(F, axis=(1, 2))
    H, op, rhs = system.hessian(w, F), system.operator(w, F), system.gradient(w, F)
    x = op.solve(rhs)
    quadratic = system.law.is_quadratic
    tensors = {relax: conductance_tensors(system, relax) for relax in (True, False)} if quadratic else {}
    chi = micro_solve(system, F)
    relaxed = newton_zero_mean(system, F=F, w0=w, tol=MICRO_TOL, ref=ref).w
    shifts = [mqc.solve_shift_vectors(stack, F, guess) for guess in (None, q)]
    for t, model in enumerate(models):
        alone = compile_system(cell, model)
        assert alone.structure is system.structure
        for name in type(alone.law).params:
            assert bitwise_equal(getattr(system.law, name)[t], getattr(alone.law, name)), name
        for fn in ("energy", "gradient", "stress"):
            assert bitwise_equal(getattr(system, fn)(w, F)[t], getattr(alone, fn)(w[t], F[t])), fn
        assert bitwise_equal(H[t], alone.hessian(w[t], F[t])[0])
        single = alone.operator(w[t], F[t])
        assert bitwise_equal(op._dense[t], single._dense[0])
        assert bitwise_equal(x[t], single.solve(rhs[t]))
        for relax, (s, a) in tensors.items():
            s1, a1 = conductance_tensors(alone, relax)
            assert bitwise_equal(a[t], a1) and (s is None) == (s1 is None)
            assert s is None or bitwise_equal(s[t], s1)
        assert bitwise_equal(chi[t], micro_solve(alone, F[t:t + 1])[0])
        one = newton_zero_mean(alone, F=F[t:t + 1], w0=w[t:t + 1], tol=MICRO_TOL, ref=ref[t:t + 1]).w
        assert bitwise_equal(relaxed[t], one[0])
        for guess, stacked in zip((None, q), shifts):
            assert bitwise_equal(stacked[t], mqc.solve_shift_vectors(model, F[t], None if guess is None else guess[t]))


# ------------------------------------------------ shift / corrector gauges


def mqc_element_energy(model, F, shifts: np.ndarray) -> float:
    """Element energy density (1/m) sum_beta V_beta(F r + q_a - q_beta)."""
    F = np.asarray(F, dtype=float).reshape(1, model.d, model.d)
    q = np.asarray(shifts, dtype=float).reshape(1, model.m - 1, model.d)
    return float(mqc._shift_table(model).energy(F, q)[0])


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
class P0Field:
    """Piecewise-constant field: one value per element."""

    mesh: MacroMesh
    values: np.ndarray  # (n_elements, d)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float).reshape(self.mesh.n_elements, self.mesh.d)


@dataclass
class ShiftState:
    """Per-element shift vectors, one piecewise-constant field per species
    alpha = 1 .. m-1 (the first species is pinned at zero)."""

    fields: list[P0Field]
    residual: float

    def element_shifts(self, t: int) -> np.ndarray:
        return np.stack([f.values[t] for f in self.fields]) if self.fields else np.zeros((0, 1))


def solve_shift_state(model, mesh: MacroMesh, uh: P1Field) -> ShiftState:
    """Stationary shift vectors on every element of the mesh, in one stacked solve."""
    grads = all_element_gradients(uh)
    q, res = mqc._shift_newton(mqc._shift_table(model), grads,
                               np.zeros((len(grads), model.m - 1, model.d)), mqc.SHIFT_TOL, 50)
    fields = [P0Field(mesh, q[:, a]) for a in range(model.m - 1)]
    return ShiftState(fields=fields, residual=float(res.max()))


# ----------------------------------------------------- element-wise P1


def element_vertex_values(u: P1Field, t: int) -> np.ndarray:
    return u.values[u.mesh.elements[t]]


def element_gradient(u: P1Field, t: int) -> np.ndarray:
    """Constant gradient of u^h on element t, F[i, j] = d u_i / d x_j."""
    U = element_vertex_values(u, t)  # (d+1, d)
    return U.T @ u.mesh.grad_basis[t % len(u.mesh.grad_basis)]


def assemble_oracle(mesh: MacroMesh, tangents: np.ndarray) -> np.ndarray:
    """Element-by-element P1 stiffness, one local block at a time."""
    d = mesh.d
    K = np.zeros((mesh.n_vertices * d,) * 2)
    for t in range(mesh.n_elements):
        gb = mesh.grad_basis[t % len(mesh.grad_basis)]
        nodes = mesh.elements[t]
        for l in range(d + 1):
            for p in range(d + 1):
                for i in range(d):
                    for k in range(d):
                        val = sum(gb[l, j] * tangents[t, i, j, k, m] * gb[p, m]
                                  for j in range(d) for m in range(d))
                        K[nodes[l] * d + i, nodes[p] * d + k] += mesh.volumes[t] * val
    return K


@dataclass(frozen=True)
class AffineMap:
    """Affine extension u(x) = value0 + F (x - x0) of an element restriction."""

    F: np.ndarray
    x0: np.ndarray
    value0: np.ndarray

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        return self.value0[None, :] + (pts - self.x0[None, :]) @ self.F.T


def affine_extension(u: P1Field, t: int) -> AffineMap:
    """The affine map agreeing with u^h on element t, defined on all of R^d."""
    F = element_gradient(u, t)
    x0 = u.mesh.corners[t, 0] / u.mesh.n
    return AffineMap(F=F, x0=x0, value0=u.values[u.mesh.elements[t, 0]].copy())


# ------------------------------------------------ exact site geometry


def site_position(lattice: Multilattice, site: int) -> tuple[Fraction, ...]:
    """Exact position in [0, 1)^d of the flat site ``site``."""
    cell = lattice.cell_multi[site // lattice.m]
    return tuple((int(c) + p) * lattice.eps for c, p in zip(cell, lattice.shifts[site % lattice.m]))


def exact_barycentric(mesh: MacroMesh, t: int, x) -> list[Fraction]:
    """Barycentric coordinates of the point x in element t's unwrapped frame,
    exact (Cramer's rule on the corner coordinates)."""
    c = [[Fraction(int(v), mesh.n) for v in corner] for corner in mesh.corners[t]]
    e = [[ck[j] - c[0][j] for j in range(mesh.d)] for ck in c[1:]]     # edge vectors
    y = [x[j] - c[0][j] for j in range(mesh.d)]
    if mesh.d == 1:
        lam = [y[0] / e[0][0]]
    else:
        det = e[0][0] * e[1][1] - e[1][0] * e[0][1]
        lam = [(y[0] * e[1][1] - e[1][0] * y[1]) / det, (e[0][0] * y[1] - y[0] * e[0][1]) / det]
    return [1 - sum(lam)] + lam


def site_element_oracle(mesh: MacroMesh, lattice: Multilattice, site: int):
    """(owner, weights, offset) of one site in exact arithmetic, by testing
    every element: the owner is the element with the lexicographically
    smallest barycenter among those holding the site's image in
    [X0, X0 + 1)^d, X0 the element's first corner."""
    x = site_position(lattice, site)
    best = None
    for t in range(mesh.n_elements):
        x0 = [Fraction(int(v), mesh.n) for v in mesh.corners[t, 0]]
        y = [a + (xi - a) % 1 for xi, a in zip(x, x0)]
        lam = exact_barycentric(mesh, t, y)
        if min(lam) >= 0:
            bary = tuple(Fraction(int(mesh.corners[t, :, j].sum()), mesh.n * (mesh.d + 1))
                         for j in range(mesh.d))
            if best is None or bary < best[0]:
                best = (bary, t, lam, [yi - a for yi, a in zip(y, x0)])
    return best[1:]


def constant_tensor_stiffness(mesh: MacroMesh, A: np.ndarray):
    """P1 stiffness of the quadratic density (1/2) A[i,j,k,l] F[i,j] F[k,l].

    For d = 1 a scalar A is accepted (density A (u')^2 / 2).
    """
    d = mesh.d
    A = np.asarray(A, dtype=float).reshape(d, d, d, d)
    return assemble(mesh, np.broadcast_to(A, (mesh.n_elements, d, d, d, d)))[0]


# ------------------------------------------------ fields and residuals


def zeros_field(lattice: Multilattice) -> LatticeField:
    return LatticeField(lattice, np.zeros((lattice.n_sites, lattice.d)))


def inner_product(u: LatticeField, v: LatticeField) -> float:
    """Averaged inner product <u, v>_S = <u . v>_S."""
    if u.lattice is not v.lattice and (
        u.lattice.d != v.lattice.d
        or u.lattice.eps != v.lattice.eps
        or u.lattice.shifts != v.lattice.shifts
    ):
        raise LatticeError("fields live on different lattices")
    return float(np.mean(np.sum(u.values * v.values, axis=1)))


def is_zero_mean(u: LatticeField) -> bool:
    scale = np.max(np.abs(u.values)) if u.values.size else 0.0
    return bool(np.all(np.abs(average(u)) <= ZERO_MEAN_TOL * max(scale, 1.0)))


def energy_gradient(problem: EquilibriumProblem, u: LatticeField) -> LatticeField:
    """Riesz representer of the first variation of E with respect to <., .>:
    the system's gradient at u / eps, divided by eps."""
    eps = problem.lattice.eps_float
    return LatticeField(problem.lattice, problem.system.gradient(u.values / eps) / eps)


def residual_norm(problem: EquilibriumProblem, u: LatticeField) -> float:
    """||dE(u) - f||, the gradient from the oracle ``GapScaledSystem``."""
    g = GapScaledSystem(problem).gradient(u.values)
    if problem.force is not None:
        g = g - problem.force.values
    return avg_norm(g)


# ------------------------------------------------ per-spec compile reference


def _neighbor_sites(lattice: Multilattice, offset) -> np.ndarray:
    """Flat site of x + eps*r for every site x of one species, in cell order."""
    shifted = np.mod(lattice.cell_multi + np.asarray(offset.cell_shift, dtype=int), lattice.cells_per_dim)
    flat = np.zeros(lattice.n_cells, dtype=np.int64)
    for j in range(lattice.d):
        flat = flat * lattice.cells_per_dim + shifted[:, j]
    return flat * lattice.m + offset.species_target


def reference_compile(lattice: Multilattice, model) -> BondSystem:
    """The bond list built spec by spec, each offset re-resolved on the lattice
    with exact rational arithmetic: the oracle of ``compile_system``, built
    anew, structure and all, on every call."""
    if model.d != lattice.d or model.m != lattice.m:
        raise PotentialError("model and lattice are incompatible")
    src_parts, dst_parts, r_parts, laws, counts = [], [], [], [], []
    for alpha in range(lattice.m):
        for spec in model.bond_specs(alpha, lattice.cell_multi):
            src = np.arange(lattice.n_cells, dtype=np.int64) * lattice.m + alpha
            dst = _neighbor_sites(lattice, lattice.resolve_offset(alpha, spec.offset.r))
            src_parts.append(src)
            dst_parts.append(dst)
            r_parts.append(np.tile(spec.offset.r_float, (len(src), 1)))
            laws.append(spec.law)
            counts.append(len(src))
    structure = BondStructure(lattice.n_sites, np.concatenate(src_parts), np.concatenate(dst_parts),
                              np.concatenate(r_parts, axis=0), (lattice.cells_per_dim,) * lattice.d)
    return BondSystem(structure, type(laws[0]).stack(laws, counts))


class GapScaledSystem(BondSystem):
    """The atomistic system of a problem in displacement variables: the gaps
    (u[dst] - u[src]) / eps, the bond forces divided by eps before the
    gradient scatters them, the stiffnesses divided by eps^2 before the
    Hessian sums them.  The formula ``BondSystem`` evaluated with a gap scale
    of eps, built from
    ``reference_compile``: the oracle of ``atomistic``'s corrector variables."""

    def __init__(self, problem: EquilibriumProblem) -> None:
        ref = reference_compile(problem.lattice, problem.model)
        super().__init__(ref.structure, ref.law)
        self.eps = problem.lattice.eps_float

    def gaps(self, w: np.ndarray, F: np.ndarray | None = None) -> np.ndarray:
        assert F is None
        return (np.take(w, self.dst, axis=-2) - np.take(w, self.src, axis=-2)) / self.eps

    def bond_forces(self, w: np.ndarray, F: np.ndarray | None = None) -> np.ndarray:
        return super().bond_forces(w, F) / self.eps

    def bond_stiffness(self, w: np.ndarray, F: np.ndarray | None = None) -> np.ndarray:
        return super().bond_stiffness(w, F) / self.eps**2

    def scalar_stiffness(self, w: np.ndarray, F: np.ndarray | None = None) -> np.ndarray | None:
        c = super().scalar_stiffness(w, F)
        return None if c is None else c / self.eps**2


def gap_scaled_solve(problem: EquilibriumProblem, tol: float = 1e-10) -> LatticeField:
    """The equilibrium solve in displacement variables on ``GapScaledSystem``."""
    f = problem.force.values if problem.force is not None else None
    ref = l2_norm(problem.force) if problem.force is not None else 0.0
    result = newton_zero_mean(GapScaledSystem(problem), f_ext=f, tol=tol, ref=ref)
    return project_zero_mean(LatticeField(problem.lattice, result.w))


class VectorSystem(BondSystem):
    """A compiled system with no scalar stiffness, so ``operator`` solves its
    full Hessian (blocks of d per site) whatever its law: the vector route,
    on the structure of the system it copies."""

    def __init__(self, system: BondSystem) -> None:
        super().__init__(system.structure, system.law)

    def scalar_stiffness(self, w: np.ndarray, F: np.ndarray | None = None) -> None:
        return None


def vector_tensors(system: BondSystem, relax: bool = True) -> tuple[np.ndarray | None, np.ndarray]:
    """Unit-gradient sensitivities (d, d, n_sites, d) and condensed tangent
    (d, d, d, d) of a quadratic system at rest through the vector route:
    ``affine_force`` over the d^2 unit gradients, one solve of the full
    Hessian, the general ``condensed_tangent``."""
    vector = VectorSystem(system)
    zero = np.zeros((system.n_sites, system.d))
    sens = micro_sensitivity(vector, zero, None) if relax else None
    return sens, condensed_tangent(vector, zero, None, sens)


def vector_solve(problem: EquilibriumProblem, tol: float = 1e-10) -> LatticeField:
    """``atomistic.solve_equilibrium`` through the full Hessian of ``VectorSystem``."""
    eps = problem.lattice.eps_float
    f = eps * problem.force.values if problem.force is not None else None
    ref = l2_norm(problem.force) if problem.force is not None else 0.0
    result = newton_zero_mean(VectorSystem(problem.system), f_ext=f, tol=eps * tol, ref=ref)
    return project_zero_mean(LatticeField(problem.lattice, eps * result.w))


def reference_hessian(system: BondSystem, w: np.ndarray, F: np.ndarray | None = None):
    """The Hessian through scipy's COO -> CSR conversion: CSR for one field; a
    stack assembled block-diagonally and scattered into a dense (T, n_dof,
    n_dof) array.  The oracle of the sparse ``BondSystem.hessian``, and of its
    one-cell stacks to rounding."""
    k = system.bond_stiffness(w, F)
    n, T = system.n_dof, int(np.prod(k.shape[:-3]))
    i, j = np.indices((system.d, system.d))
    base = n * np.arange(T)[:, None, None, None]   # first DOF of each stack entry
    rows = base + system.d * np.hstack([system.src, system.dst, system.src, system.dst])[:, None, None] + i
    cols = base + system.d * np.hstack([system.src, system.dst, system.dst, system.src])[:, None, None] + j
    vals = k.reshape((T,) + k.shape[-3:])
    data = np.concatenate([vals, vals, -vals, -vals], axis=1)
    H = sp.coo_matrix((data.ravel(), (rows.ravel(), cols.ravel())), shape=(T * n, T * n)).tocsr()
    if k.ndim == 3:
        return H
    H = H.tocoo()
    out = np.zeros((T * n, n))
    out[H.row, H.col % n] += H.data   # as todense adds them
    return out.reshape(T, n, n)


def grid_average(H, cells: tuple[int, ...]) -> np.ndarray:
    """Grid-averaged stencil of a matrix H (dense or sparse) on fields numbered
    cell-major over the periodic grid ``cells``: its b x b blocks summed per
    periodic cell offset (column cell minus row cell) through a COO copy, then
    divided by the number of cells.  Shape cells + (b, b)."""
    coo = sp.coo_matrix(H)
    n_cells = int(np.prod(cells))
    b = coo.shape[0] // n_cells
    ci, ai = np.divmod(coo.row, b)
    cj, aj = np.divmod(coo.col, b)
    grid = np.indices(cells).reshape(len(cells), -1)
    coords = np.empty_like(grid)        # coordinates of each flat cell, as cell_index numbers them
    coords[:, cell_index(grid, cells)] = grid
    delta = cell_index((np.take(x, cj) - np.take(x, ci) for x in coords), cells)
    S = np.bincount((delta * b + ai) * b + aj, weights=coo.data, minlength=n_cells * b * b)
    return S.reshape(tuple(cells) + (b, b)) / n_cells


def class_order_hessian(system: BondSystem, w: np.ndarray, F: np.ndarray | None = None) -> np.ndarray:
    """The dense Hessian stack (T, n_dof, n_dof) of a one-cell system summed in
    class order: bond by bond (one bond per class), the bond's d x d block
    added at (src, src) and (dst, dst) and subtracted at (src, dst) and
    (dst, src) in turn, per stack entry.  The oracle of the one-cell
    ``BondSystem.hessian``."""
    assert system.cells == (1,) * system.d
    k = system.bond_stiffness(w, F)
    k = k.reshape((-1,) + k.shape[-3:])
    d = system.d
    out = np.zeros((len(k), system.n_dof, system.n_dof))
    for t in range(len(k)):
        for a, b, kb in zip(system.src, system.dst, k[t]):
            for i, j, sign in ((a, a, 1), (b, b, 1), (a, b, -1), (b, a, -1)):
                out[t, d * i:d * (i + 1), d * j:d * (j + 1)] += sign * kb   # x + (-y) rounds as x - y
    return out


def reference_pcg(op, B: np.ndarray) -> np.ndarray:
    """``GaugeFixedOperator._pcg`` as it was before its in-place updates: the
    whole stack multiplied by H at once, new arrays for every update, norms
    by ``np.linalg.norm``, and each residual preconditioned before the
    convergence test.  The bitwise oracle of the PCG loop."""
    X = np.zeros_like(B)
    b_norm = np.linalg.norm(B, axis=1)
    rows = np.arange(len(B))                # stack entries still iterating
    x = np.zeros_like(B)
    r = B.copy()
    z = op._precondition(r)
    p = z
    rz = np.sum(r * z, axis=1)
    it = 0
    while True:
        r_norm = np.linalg.norm(r, axis=1)
        floor = network.PCG_BACKWARD_TOL * (op._h_inf * np.linalg.norm(x, axis=1) + b_norm[rows])
        done = (r_norm <= network.PCG_RTOL * b_norm[rows]) | (r_norm <= floor)
        if done.any():
            X[rows[done]] = x[done]
            keep = ~done
            rows, x, r, p, rz, r_norm = rows[keep], x[keep], r[keep], p[keep], rz[keep], r_norm[keep]
            if not len(rows):
                return X
        rel = float(np.max(r_norm / b_norm[rows]))
        if it == network.PCG_MAX_ITER:
            raise SolverError(f"PCG did not converge: relative residual {rel:.3e} "
                              f"after {it} iterations")
        Hp = (op._H @ p.T).T
        pHp = np.sum(p * Hp, axis=1)
        if not np.all(pHp > 0):
            raise SolverError(f"PCG met non-positive curvature p.Hp = {pHp.min():.3e} at "
                              f"iteration {it} (relative residual {rel:.3e})")
        alpha = (rz / pHp)[:, None]
        x = x + alpha * p
        r = r - alpha * Hp
        z = op._precondition(r)
        rz_new = np.sum(r * z, axis=1)
        p = z + (rz_new / rz)[:, None] * p
        rz = rz_new
        it += 1


def every_step_energy_dynamics(problem: EquilibriumProblem, u0: LatticeField, t_final: float,
                               tau: float, sample_every: int = 1) -> Trajectory:
    """Verlet evolution from rest that evaluates the total energy and its
    blow-up guard after every step and records every ``sample_every``-th step
    and the last one. The oracle of ``run_atomistic_dynamics``, which
    evaluates the energy at recorded states only."""
    accel = atomistic_accel(problem)
    n_steps = int(round(t_final / tau))
    state = DynamicState(u=u0.values.copy(), v=np.zeros_like(u0.values), t=0.0)
    e0 = atomistic_total_energy(problem, state)
    scale = max(abs(e0), 1.0)
    times = [0.0]
    disp = [state.u.copy()]
    vel = [state.v.copy()]
    energies = [e0]
    for k in range(1, n_steps + 1):
        state = verlet_step(state, accel, tau)
        e = atomistic_total_energy(problem, state)
        if not np.isfinite(e) or abs(e - e0) > 1e3 * scale:
            raise SolverError(f"dynamics blew up at t = {state.t:.6g}")
        if k % sample_every == 0 or k == n_steps:
            times.append(state.t)
            disp.append(state.u.copy())
            vel.append(state.v.copy())
            energies.append(e)
    return Trajectory(np.array(times), disp, vel, np.array(energies))


def every_step_hqc_dynamics(model, lattice: Multilattice, mesh: MacroMesh, species_masses,
                            u0_lattice: LatticeField, t_final: float, tau: float) -> MacroTrajectory:
    """A plain Verlet loop over the HQC macro system with lumped masses that
    reconstructs every step, with no blow-up guard. The oracle of
    ``run_hqc_dynamics``."""
    op = HQCOperator(model, lattice, mesh)
    node_mass = lumped_node_masses(mesh, float(np.mean(species_masses)))

    def accel(u: np.ndarray) -> tuple[np.ndarray, None]:
        return -op.gradient(P1Field(mesh, u)) / node_mass[:, None], None

    u0 = p1_interpolate_lattice(mesh, u0_lattice).values
    state = DynamicState(u=u0.copy(), v=np.zeros_like(u0), t=0.0)
    times = [0.0]
    recon = [reconstruct(op, P1Field(mesh, state.u))]
    for _ in range(int(round(t_final / tau))):
        state = verlet_step(state, accel, tau)
        times.append(state.t)
        recon.append(reconstruct(op, P1Field(mesh, state.u)))
    return MacroTrajectory(np.array(times), recon)
