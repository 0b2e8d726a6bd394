"""The stacked bond kernel (one law per system, incidence scatter, stacked
fields) and the FFT-preconditioned CG behind the gauge-fixed solves."""

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from hqclab import network
from hqclab.fem import MacroMesh, assemble, build_mesh
from hqclab.lattice import Multilattice, chain_lattice, square_lattice
from hqclab.network import GaugeFixedOperator, SolverError, avg_norm, compile_system
from hqclab.potential import (
    BondSpec,
    InteractionModel,
    LennardJones1D,
    LennardJonesParams,
    LinearSpring1D,
    PotentialError,
    RandomBond2D,
    SpringLaw,
    make_dynamics_model,
)
from support import class_order_hessian, grid_average, reference_compile, reference_hessian


def per_spec_laws(lattice, model):
    """One law per bond class and its bond slice, in compile_system's bond order
    (one bond per cell: the sites ``site_index`` gives the species)."""
    laws, slices, start = [], [], 0
    for alpha in range(lattice.m):
        nb = len(lattice.site_index(lattice.cell_multi, alpha))
        for spec in model.bond_specs(alpha, lattice.cell_multi):
            laws.append(spec.law)
            slices.append(slice(start, start + nb))
            start += nb
    return laws, slices


def oracle(system, laws, slices, fn, w, F=None):
    """Per-bond values through one law call per bond class (the former kernel)."""
    g = system.gaps(w, F)
    return np.concatenate([getattr(law, fn)(g[sl], system.rvec[sl])
                           for law, sl in zip(laws, slices)], axis=0)


def scatter_oracle(system, per_bond):
    out = np.zeros((system.n_sites, system.d))
    np.add.at(out, system.dst, per_bond)
    np.subtract.at(out, system.src, per_bond)
    return out


def three_species_lj():
    return LennardJones1D(LennardJonesParams(s=(1.0, 0.7, 1.3), ell=(1.0, 0.98, 1.03), cutoff=2.0))


def cases():
    """(name, lattice, model, field scale, F or None): fields in corrector
    variables, so the atomistic chains take u / eps at the scale of u."""
    lj = make_dynamics_model().model
    return [
        ("springs", chain_lattice(Fraction(1, 16), 2), LinearSpring1D((1.0, 3.0)), 0.032, None),
        ("lj-chain", chain_lattice(Fraction(1, 512), 2), lj, 0.0512, None),
        ("lj-micro", Multilattice(1, 1, lj.shifts()), lj, 0.02, np.array([[0.03]])),
        ("lj-3", chain_lattice(Fraction(1, 16), 3), three_species_lj(), 0.016, None),
        ("lj-3-micro", Multilattice(1, 1, three_species_lj().shifts()), three_species_lj(),
         0.02, np.array([[-0.02]])),
        ("network", square_lattice(8), RandomBond2D(8, seed=5), 0.08, None),
        ("network-strained", square_lattice(8), RandomBond2D(8, seed=6), 0.1,
         np.array([[0.1, -0.05], [0.02, 0.07]])),
    ]


@pytest.mark.parametrize("name, lattice, model, scale, F", cases(), ids=[c[0] for c in cases()])
def test_stacked_kernel_bit_identical_to_per_spec_laws(name, lattice, model, scale, F):
    system = compile_system(lattice, model)
    laws, slices = per_spec_laws(lattice, model)
    rng = np.random.default_rng(7)
    w = scale * rng.standard_normal((lattice.n_sites, lattice.d))
    e = oracle(system, laws, slices, "energy", w, F)
    assert system.energy(w, F) == float(e.sum() / system.n_sites)
    forces = oracle(system, laws, slices, "grad", w, F)
    assert np.array_equal(system.bond_forces(w, F), forces)
    assert np.array_equal(system.bond_stiffness(w, F), oracle(system, laws, slices, "hess", w, F))
    assert np.array_equal(system.gradient(w, F), scatter_oracle(system, forces))


@pytest.mark.parametrize("name, lattice, model, scale, F", cases(), ids=[c[0] for c in cases()])
def test_stacked_fields_equal_single_evaluations(name, lattice, model, scale, F):
    system = compile_system(lattice, model)
    rng = np.random.default_rng(8)
    T, d = 3, lattice.d
    W = scale * rng.standard_normal((T, lattice.n_sites, d))
    Fs = None if F is None else F + 0.01 * rng.standard_normal((T, d, d))
    single = [(W[t], None if Fs is None else Fs[t]) for t in range(T)]
    assert np.array_equal(system.gaps(W, Fs), np.stack([system.gaps(*a) for a in single]))
    assert np.array_equal(system.energy(W, Fs), np.array([system.energy(*a) for a in single]))
    for fn in ("bond_forces", "gradient", "stress"):
        batched = getattr(system, fn)(W, Fs)
        assert np.array_equal(batched, np.stack([getattr(system, fn)(*a) for a in single])), fn
    G = np.eye(d * d).reshape(d * d, d, d)   # every unit direction at every entry
    assert np.array_equal(system.affine_force(W, Fs, G), np.stack([system.affine_force(*a, G) for a in single]))


def _bitwise_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def compile_cases():
    """(lattice, model, parent cells of a sampling subgrid or None) for the
    compile-against-reference check."""
    from test_mqc import _TwoSpecies2D

    from hqclab.hqc import place_sampling_domains

    sub = place_sampling_domains(build_mesh(2, 2), square_lattice(8), n_rep=4)[0]
    two = _TwoSpecies2D(psi0=1.0, psi1=3.0)
    springs = [pytest.param(chain_lattice(Fraction(1, 8), m), LinearSpring1D(tuple(np.arange(1.0, m + 1))),
                            None, id=f"springs-m{m}") for m in (1, 2, 3, 4)]
    return springs + [
        pytest.param(chain_lattice(Fraction(1, 16), 2), make_dynamics_model().model, None, id="lj-chain"),
        pytest.param(chain_lattice(Fraction(1, 16), 3), three_species_lj(), None, id="lj-3"),
        pytest.param(square_lattice(8), RandomBond2D(8, seed=5), None, id="network"),
        pytest.param(sub.torus, RandomBond2D(8, seed=5), sub.parent_cells, id="network-subgrid"),
        pytest.param(Multilattice(2, Fraction(1, 4), two.shifts()), two, None, id="two-species-2d"),
    ]


@pytest.mark.parametrize("lattice, model, parent_cells", compile_cases())
def test_compile_equals_the_per_spec_reference_bitwise(lattice, model, parent_cells):
    # one array pass over the models' resolved offsets against the per-spec
    # compile that re-resolves every offset on the lattice; a sampling subgrid
    # compiles the model's corner subgrid, the parent cells of its placement
    system = compile_system(lattice, model)
    ref = reference_compile(lattice, model)
    for name in ("src", "dst", "rvec"):
        assert _bitwise_equal(getattr(system, name), getattr(ref, name)), name
    assert type(system.law) is type(ref.law) and vars(system.law).keys() == vars(ref.law).keys()
    for name, value in vars(ref.law).items():
        assert _bitwise_equal(getattr(system.law, name), value), name
    assert (system.n_sites, system.cells) == (ref.n_sites, ref.cells)
    if parent_cells is not None:
        assert np.array_equal(system.law.psi, model.psi[parent_cells].T.ravel())


def test_compile_refuses_a_lattice_with_other_shifts():
    # the offsets come resolved from the model, so the lattice must carry its shifts
    with pytest.raises(PotentialError, match="shifts"):
        compile_system(Multilattice(1, Fraction(1, 8), [0, Fraction(1, 3)]), LinearSpring1D((1.0, 2.0)))
    with pytest.raises(PotentialError, match="shifts"):
        compile_system(chain_lattice(Fraction(1, 8), 3), LinearSpring1D((1.0, 2.0)))
    with pytest.raises(PotentialError, match="shifts"):
        compile_system(chain_lattice(Fraction(1, 8), 1), RandomBond2D(8, seed=1))


def test_one_system_per_model_and_cells_per_dimension():
    # a system is fixed by its model and cells per dimension: two lattices of
    # one size share one memo entry, another size or model compiles its own
    model = LinearSpring1D((1.0, 3.0))
    first = compile_system(chain_lattice(Fraction(1, 8), 2), model)
    assert compile_system(chain_lattice(Fraction(1, 8), 2), model) is first
    assert compile_system(chain_lattice(Fraction(1, 16), 2), model) is not first
    assert sorted(network._SYSTEMS[model]) == [8, 16]
    assert compile_system(chain_lattice(Fraction(1, 8), 2), LinearSpring1D((1.0, 3.0))) is not first


def test_incidence_scatter_matches_add_at_bitwise():
    lat = chain_lattice(Fraction(1, 512), 2)
    system = compile_system(lat, make_dynamics_model().model)
    assert lat.n_sites == 1024
    f = np.random.default_rng(9).standard_normal((len(system.src), 1))
    out = np.zeros((lat.n_sites, 1))
    np.add.at(out, system.dst, f)
    np.subtract.at(out, system.src, f)
    assert np.array_equal(system.incidence @ f, out)
    # a single-cell torus bonds sites to themselves: both entries are kept
    cell = compile_system(Multilattice(1, 1, lat.shifts), make_dynamics_model().model)
    assert cell.incidence.nnz == 2 * len(cell.src)


# ------------------------------------------------------------ PCG solves


def hessian_and_stencil(system, w, F=None):
    """The full Hessian of one field and its grid-averaged stencil (blocks of d per site)."""
    return system._matrix(system.bond_stiffness(w, F))


def network_hessian(log_decades=None):
    """Full Hessian of an n = 32 random network (2048 DOF) and its stencil,
    optionally with bond strengths redrawn log-uniformly over ``log_decades``
    decades."""
    n = 32
    model = RandomBond2D(n, seed=11)
    if log_decades is not None:
        rng = np.random.default_rng(12)
        model.psi = 10.0 ** rng.uniform(0.0, log_decades, size=model.psi.shape)
    system = compile_system(square_lattice(n), model)
    assert system.cells == (n, n)
    return (system,) + hessian_and_stencil(system, np.zeros((system.n_sites, 2)))


def zero_mean_stack(k, n_sites, d, seed):
    b = np.random.default_rng(seed).standard_normal((k, n_sites, d))
    return b - b.mean(axis=1, keepdims=True)


@pytest.mark.parametrize("log_decades, tol", [(None, 1e-10), (3.0, 1e-9)],
                         ids=["uniform-bonds", "log-uniform-3-decades"])
def test_pcg_matches_dense_least_squares(log_decades, tol):
    # the full Hessian's solver and the system's own, which holds the scalar
    # Laplacian and solves each field as two scalar columns
    system, H, stencil = network_hessian(log_decades)
    rhs = zero_mean_stack(4, system.n_sites, 2, seed=13)
    scalar = system.operator(np.zeros((system.n_sites, 2)))
    assert scalar.n_dof == system.n_sites
    # minimum-norm solution = the zero-mean one, since the kernel is the translations
    ref = np.linalg.lstsq(H.toarray(), rhs.reshape(4, -1).T, rcond=None)[0].T.reshape(rhs.shape)
    assert np.abs(ref.mean(axis=1)).max() <= 1e-12 * np.abs(ref).max()
    for op in (GaugeFixedOperator(H, 2, stencil), scalar):
        x = op.solve(rhs)
        for xk, rk in zip(x, ref):
            assert np.linalg.norm(xk - rk) <= tol * np.linalg.norm(rk)
        assert np.abs(x.mean(axis=1)).max() <= 1e-14 * np.abs(x).max()


def test_pcg_leaves_zero_columns_at_iteration_zero(monkeypatch):
    # a zero right-hand side meets ||r|| <= PCG_RTOL * 0 before any iteration:
    # its column is exact zeros, and the other columns of its stack solve as
    # they do alone; a field with a zero component (a force along x only) is
    # one zero scalar column of the Laplacian's stack
    system, H, stencil = network_hessian()
    rhs = zero_mean_stack(3, system.n_sites, 2, seed=18)
    rhs[1] = 0.0
    vector, scalar = GaugeFixedOperator(H, 2, stencil), system.operator(np.zeros((system.n_sites, 2)))
    x = vector.solve(rhs)
    assert np.all(x[1] == 0.0)
    for t in (0, 2):
        assert np.array_equal(x[t], vector.solve(rhs[t]))
    assert np.all(vector.solve(np.zeros_like(rhs)) == 0.0)
    along_x = rhs[0] * [1.0, 0.0]
    y = scalar.solve(along_x)
    assert np.all(y[:, 1] == 0.0) and np.array_equal(y[:, :1], scalar.solve(along_x[:, :1]))
    monkeypatch.setattr(network, "PCG_MAX_ITER", 0)   # zero columns need no iteration
    assert np.all(scalar.solve(np.zeros((4, system.n_sites, 2))) == 0.0)


def chain_spring_hessian():
    lat = chain_lattice(Fraction(1, 384), 2)
    system = compile_system(lat, LinearSpring1D((1.0, 3.0)))
    return hessian_and_stencil(system, np.zeros((lat.n_sites, 1))) + (1,)


def p1_constant_tensor_stiffness():
    mesh = MacroMesh(2, 32)
    M = np.random.default_rng(14).standard_normal((4, 4))
    A = (M @ M.T / 4 + np.eye(4)).reshape(2, 2, 2, 2)   # positive on every gradient
    return assemble(mesh, A) + (2,)


@pytest.mark.parametrize("build", [chain_spring_hessian, p1_constant_tensor_stiffness],
                         ids=["two-species-chain", "p1-constant-tensor"])
def test_preconditioner_inverts_block_circulant_operators_exactly(build):
    H, stencil, d = build()
    op = GaugeFixedOperator(H, d, stencil)
    assert op._dense is None   # a sparse H takes the PCG path
    x = zero_mean_stack(2, H.shape[0] // d, d, seed=15).reshape(2, -1)
    back = op._precondition(np.asarray((H @ x.T).T))
    assert np.abs(back - x).max() <= 1e-12 * np.abs(x).max()
    # the translation kernel is zeroed, not inverted
    assert np.abs(op._precondition(np.ones((1, H.shape[0])))).max() <= 1e-12


def subgrid_sensitivity():
    """The n_rep = 8 sampling subgrid of an n = 32 random network (128 DOF) and
    the right-hand sides of its unit-gradient sensitivities."""
    from hqclab.hqc import place_sampling_domains

    sub = place_sampling_domains(build_mesh(2, 4), square_lattice(32), n_rep=8)[0]
    system = compile_system(sub.torus, RandomBond2D(32, seed=1))
    zero = np.zeros((system.n_sites, 2))
    rhs = -system.affine_force(zero, None, np.eye(4).reshape(4, 2, 2))
    return hessian_and_stencil(system, zero) + (rhs, 2)


def macro_stiffness(d, n):
    """HQC macro Hessian on n elements per direction: the n_rep = 8 random
    network in 2D, the nonlinear LJ chain at a random macro field in 1D."""
    from hqclab.fem import P1Field, all_element_gradients, assemble
    from hqclab.hqc import HQCOperator

    mesh = build_mesh(d, n)
    if d == 2:
        op = HQCOperator(RandomBond2D(32, seed=1), square_lattice(32), mesh, n_rep=8)
        uh = np.zeros((n * n, 2))
    else:
        op = HQCOperator(make_dynamics_model().model, chain_lattice(Fraction(1, 16), 2), mesh)
        uh = 0.01 * np.random.default_rng(31).standard_normal((n, 1))
    rhs = zero_mean_stack(3, mesh.n_vertices, d, seed=32)
    return assemble(mesh, op.d2phi0(all_element_gradients(P1Field(mesh, uh)))) + (rhs, d)


@pytest.mark.parametrize("build", [subgrid_sensitivity, lambda: macro_stiffness(2, 8),
                                   lambda: macro_stiffness(2, 16), lambda: macro_stiffness(1, 4)],
                         ids=["subgrid-sensitivity-128", "macro-2d-128", "macro-2d-512", "macro-1d-4"])
def test_small_grids_solve_by_pcg_to_dense_least_squares(build):
    H, stencil, rhs, d = build()
    op = GaugeFixedOperator(H, d, stencil)
    assert op._dense is None
    x = op.solve(rhs)
    k = len(rhs)
    ref = np.linalg.lstsq(H.toarray(), rhs.reshape(k, -1).T, rcond=None)[0].T.reshape(rhs.shape)
    for xk, rk in zip(x, ref):
        assert np.linalg.norm(xk - rk) <= 1e-12 * np.linalg.norm(rk)


def test_pcg_failures_name_their_cause(monkeypatch):
    system, H, stencil = network_hessian(3.0)
    rhs = zero_mean_stack(1, system.n_sites, 2, seed=16)[0]
    with pytest.raises(SolverError, match=r"grid \(31, 31\) does not fit"):
        GaugeFixedOperator(H, 2, np.zeros((31, 31, 2, 2)))
    with pytest.raises(SolverError, match=r"non-positive curvature .* iteration 0 "
                                          r"\(relative residual 1\.000e\+00\)"):
        GaugeFixedOperator(-H, 2, -stencil).solve(rhs)
    monkeypatch.setattr(network, "PCG_MAX_ITER", 3)
    with pytest.raises(SolverError, match=r"relative residual \d\.\d{3}e[-+]\d+ after 3 iterations"):
        GaugeFixedOperator(H, 2, stencil).solve(rhs)


# ------------------------------------------------- stacked Newton and solves


def micro_cases():
    """(name, model, gradient scale) of cell problems with 2 to 4 DOF."""
    return [
        ("lj-m2", make_dynamics_model().model, 0.03),
        ("lj-m3", three_species_lj(), 0.03),
        ("springs-m4", LinearSpring1D((1.0, 3.0, 0.5, 2.0)), 0.3),
    ]


@pytest.mark.parametrize("name, model, scale", micro_cases(), ids=[c[0] for c in micro_cases()])
def test_dense_stack_operator_equals_per_entry_sparse_operators(name, model, scale):
    # each entry's own operator: one field on the one-cell torus, whose Hessian
    # is a dense stack of one
    system = compile_system(Multilattice(1, 1, model.shifts()), model)
    rng = np.random.default_rng(17)
    T, n = 5, system.n_sites
    W = 0.01 * rng.standard_normal((T, n, 1))
    Fs = scale * rng.standard_normal((T, 1, 1))
    stack = system.hessian(W, Fs)
    op = GaugeFixedOperator(stack, 1, None)
    one_rhs = rng.standard_normal((T, n, 1))
    many_rhs = rng.standard_normal((T, 3, n, 1))
    x_one, x_many = op.solve(one_rhs), op.solve(many_rhs)
    for t in range(T):
        H = system.hessian(W[t], Fs[t])
        assert H.shape == (1, n, n) and np.array_equal(stack[t], H[0])
        single = GaugeFixedOperator(H, 1, None)
        assert np.array_equal(x_one[t], single.solve(one_rhs[t]))
        assert np.array_equal(x_many[t], single.solve(many_rhs[t]))


def test_one_cell_stacks_keep_the_dense_exact_inverse():
    # the LJ cell of the dynamics study stretched to F = 0.2: its Hessian is
    # negative definite on zero-mean fields, so PCG meets non-positive
    # curvature, and the dense path's exact inverse still solves it
    model = make_dynamics_model().model
    system = compile_system(Multilattice(1, 1, model.shifts()), model)
    zero, F = np.zeros((system.n_sites, 1)), np.array([[0.2]])
    H = system.hessian(zero, F)[0]
    zero_mean = np.linalg.svd(np.ones((1, system.n_dof)))[2][1:].T   # orthonormal basis
    assert np.linalg.eigvalsh(zero_mean.T @ H @ zero_mean).max() < 0
    b = np.random.default_rng(20).standard_normal((system.n_sites, 1))
    x = system.operator(zero, F).solve(b)
    assert np.max(np.abs(H @ x - (b - b.mean()))) <= 1e-13 * np.max(np.abs(b))
    with pytest.raises(SolverError, match="non-positive curvature"):
        GaugeFixedOperator(sp.csr_matrix(H), 1, H[None]).solve(b)


#: the cases of hessian_cases on a grid of cells, whose one field has a CSR Hessian
GRID_CASES = ("network-subgrid-128", "chain-602")


def hessian_cases():
    """One-cell systems and systems on a grid of cells for the Hessian-against-reference check."""
    from test_mqc import _TwoSpecies2D

    from hqclab.hqc import place_sampling_domains

    def cell(model):
        return compile_system(Multilattice(model.d, 1, model.shifts()), model)

    sub = place_sampling_domains(build_mesh(2, 2), square_lattice(8), n_rep=8)[0]
    springs = [pytest.param(lambda m=m: cell(LinearSpring1D(tuple(np.arange(1.0, m + 1)))), id=f"springs-m{m}")
               for m in (1, 2, 3, 4)]
    return springs + [
        pytest.param(lambda: cell(make_dynamics_model().model), id="lj-cell"),
        pytest.param(lambda: cell(_TwoSpecies2D(psi0=1.0, psi1=3.0)), id="two-species-2d"),
        pytest.param(lambda: compile_system(sub.torus, RandomBond2D(8, seed=5)), id="network-subgrid-128"),
        pytest.param(lambda: compile_system(chain_lattice(Fraction(1, 301), 2), LinearSpring1D((1.0, 2.0))),
                     id="chain-602"),
    ]


def cell_hessian_cases():
    """Every one-cell case of hessian_cases as one field and as stacks of one and three."""
    return [pytest.param(case.values[0], T, id=f"{case.id}-{name}") for case in hessian_cases()
            if case.id not in GRID_CASES for T, name in ((None, "field"), (1, "stack-1"), (3, "stack-3"))]


@pytest.mark.parametrize("build, T", cell_hessian_cases())
def test_hessian_equals_the_coo_reference_bitwise(build, T):
    # a one-cell Hessian is its stencil, which sums every entry class by class;
    # that differs from the COO -> CSR conversion's order only by rounding
    system = build()
    rng = np.random.default_rng(23)
    lead = () if T is None else (T,)
    w = 0.01 * rng.standard_normal(lead + (system.n_sites, system.d))
    F = 0.02 * rng.standard_normal(lead + (system.d, system.d))
    for args in ((w, F), (w, None)):
        H, ref = system.hessian(*args), reference_hessian(system, *args)
        dense = ref.toarray()[None] if T is None else ref
        assert _bitwise_equal(H, class_order_hessian(system, *args))
        assert H.shape == dense.shape
        assert np.max(np.abs(H - dense)) <= 1e-14 * np.max(np.abs(dense))


def grid_stack_cases():
    """Systems on a grid of cells: the grid cases of hessian_cases and a 2 x 2
    torus, which bonds every site to its neighbors more than once."""
    grid = [pytest.param(case.values[0], id=case.id) for case in hessian_cases() if case.id in GRID_CASES]
    return grid + [pytest.param(lambda: compile_system(square_lattice(2), RandomBond2D(2, seed=18)),
                                id="network-2x2")]


def _grid_stack(system, T, seed):
    rng = np.random.default_rng(seed)
    W = 0.01 * rng.standard_normal((T, system.n_sites, system.d))
    return W, 0.02 * rng.standard_normal((T, system.d, system.d))


@pytest.mark.parametrize("build", grid_stack_cases())
def test_a_stack_of_one_on_a_grid_is_its_field(build):
    # its CSR Hessian and its solver's solve equal those of its field bit for
    # bit, and the CSR holds the COO -> CSR reference to rounding
    system = build()
    W, Fs = _grid_stack(system, 1, seed=19)
    rhs = zero_mean_stack(1, system.n_sites, system.d, seed=21)
    for stack, field in (((W, Fs), (W[0], Fs[0])), ((W, None), (W[0], None))):
        H, single = system.hessian(*stack), system.hessian(*field)
        assert isinstance(H, sp.csr_matrix)
        for part in ("data", "indices", "indptr"):
            assert _bitwise_equal(getattr(H, part), getattr(single, part)), part
        ref = reference_hessian(system, *field)
        assert np.max(np.abs(H.toarray() - ref.toarray())) <= 1e-14 * np.max(np.abs(ref.data))
        x = system.operator(*field).solve(rhs[0])
        assert _bitwise_equal(system.operator(*stack).solve(rhs[0]), x)
        assert _bitwise_equal(system.operator(*stack).solve(rhs)[0], x)


@pytest.mark.parametrize("build", grid_stack_cases())
def test_grid_systems_refuse_a_stack_of_fields(build):
    # a stack of more than one field on a grid is refused with the grid named,
    # not densified: its Hessians belong in a stacked CSR (ROADMAP item 4)
    system = build()
    W, Fs = _grid_stack(system, 3, seed=22)
    refused = rf"a stack of 3 Hessians on the grid of cells {re.escape(str(system.cells))}"
    for call in (system.hessian, system.operator):
        with pytest.raises(SolverError, match=refused):
            call(W, Fs)
    with pytest.raises(SolverError, match=refused):
        network.newton_zero_mean(system, F=Fs)


class _UnevenChain(InteractionModel):
    """Test-local two-species spring chain whose species have different
    degrees: species 0 bonds to the species-1 site half a cell on and to the
    next species-0 site, species 1 only to the next species-0 site."""

    d, m = 1, 2

    def __init__(self):
        lat = chain_lattice(1, 2)
        self._specs = [[BondSpec(lat.resolve_offset(0, Fraction(1, 2)), SpringLaw(np.array(1.0))),
                        BondSpec(lat.resolve_offset(0, Fraction(1)), SpringLaw(np.array(0.5)))],
                       [BondSpec(lat.resolve_offset(1, Fraction(1, 2)), SpringLaw(np.array(2.0)))]]

    def shifts(self):
        return [(Fraction(0),), (Fraction(1, 2),)]

    def bond_specs(self, alpha, cells=None):
        return self._specs[alpha]


def grid_hessian_cases():
    """(system builder, whether bonds reach one site twice) of one field on a grid of cells."""
    grid = [pytest.param(case.values[0], False, id=case.id) for case in hessian_cases() if case.id in GRID_CASES]
    return grid + [
        pytest.param(lambda: compile_system(chain_lattice(Fraction(1, 3), 2), make_dynamics_model().model),
                     True, id="lj-chain-3"),
        pytest.param(lambda: compile_system(chain_lattice(Fraction(1, 5), 2), _UnevenChain()),
                     False, id="uneven-degrees"),
    ]


@pytest.mark.parametrize("build, coincident", grid_hessian_cases())
def test_grid_hessian_matches_the_coo_reference(build, coincident):
    # one field on a grid of cells: the CSR filled from the incidence rows holds
    # the COO -> CSR reference's entries to rounding, each (row, col) once, and
    # its stencil is the reference's grid average.  On the 3-cell LJ chain the
    # bond range wraps, so bonds of one site reach the same neighbor
    system = build()
    rng = np.random.default_rng(23)
    w = 0.01 * rng.standard_normal((system.n_sites, system.d))
    F = 0.02 * rng.standard_normal((system.d, system.d))
    blocks = system.n_sites + system.incidence.nnz       # one per site and incident bond
    assert (system.d**2 * blocks > reference_hessian(system, w).nnz) == coincident
    for args in ((w, F), (w, None)):
        (H, stencil), ref = hessian_and_stencil(system, *args), reference_hessian(system, *args)
        assert isinstance(H, sp.csr_matrix) and H.shape == ref.shape and H.nnz == ref.nnz
        # a spring system's solver holds L with H = L (x) I_d bit for bit, any other the full H
        held = system.operator(*args)._H
        if held.shape != H.shape:
            held = sp.kron(held, sp.eye(system.d))
        assert np.array_equal(held.toarray(), H.toarray())
        rows = np.repeat(np.arange(H.shape[0]), np.diff(H.indptr))
        assert len(np.unique(rows * H.shape[1] + H.indices)) == H.nnz    # no duplicate (row, col)
        assert np.max(np.abs(H.toarray() - ref.toarray())) <= 1e-14 * np.max(np.abs(ref.data))
        average = grid_average(ref, system.cells)
        assert stencil.shape == average.shape
        assert np.max(np.abs(stencil - average)) <= 1e-14 * np.max(np.abs(average))


def _bond_stencils(build):
    """The grid Hessian and stencil of a system at a random field, with and without a gradient."""
    system = build()
    rng = np.random.default_rng(29)
    w = 0.01 * rng.standard_normal((system.n_sites, system.d))
    F = 0.02 * rng.standard_normal((system.d, system.d))
    return [hessian_and_stencil(system, *args) + (system.cells,) for args in ((w, F), (w, None))]


def _p1_stencils(d, n, shared):
    """``assemble`` of random per-element tangents, or of one shared tangent
    with dyadic entries on a grid of 2^k vertices per direction: its stencil
    is its one cell's rows, the exact mean, which the reference's n^d-fold
    sum of one value reaches only where that sum is exact."""
    mesh = build_mesh(d, n)
    if shared:
        tangents = np.einsum("ik,jl->ijkl", np.eye(d), np.array([[2.0, 0.5], [0.5, 1.0]])[:d, :d])
    else:
        tangents = np.random.default_rng(31 + d + n).standard_normal((mesh.n_elements,) + (d,) * 4)
    return [assemble(mesh, tangents) + ((n,) * d,)]


def stencil_cases():
    """Every case of grid_hessian_cases, the n = 32 network and the 512-cell LJ
    chain of the dynamics study, and P1 stiffnesses."""
    grids = [(case.values[0], case.id) for case in grid_hessian_cases()] + [
        (lambda: compile_system(square_lattice(32), RandomBond2D(32, seed=11)), "network-32"),
        (lambda: compile_system(chain_lattice(Fraction(1, 512), 2), make_dynamics_model().model), "lj-chain-512")]
    bonds = [pytest.param(lambda build=build: _bond_stencils(build), id=name) for build, name in grids]
    p1 = [pytest.param(lambda d=d, n=n, shared=shared: _p1_stencils(d, n, shared),
                       id=f"p1-{d}d-{n}-{'shared' if shared else 'per-element'}")
          for d, n, shared in ((1, 5, False), (2, 3, False), (2, 8, False), (1, 8, True), (2, 16, True))]
    return bonds + p1


@pytest.mark.parametrize("build", stencil_cases())
def test_the_stencil_is_the_grid_average_of_its_matrix_bitwise(build):
    # one sum fills the block rows, and the stencil is their cell mean: the
    # reference's per-offset sums over the matrix, cell by cell, bit for bit
    for H, stencil, cells in build():
        assert sp.issparse(H)
        assert _bitwise_equal(stencil, grid_average(H, cells))


def test_grid_hessian_and_solver_set_up_stay_near_the_matrix_size():
    # the n = 128 random network of the stochastic study: the full Hessian, and
    # the operator's set-up with its scalar Laplacian, each allocate little
    # beyond the CSR matrix they return or keep
    n = 128
    system = compile_system(square_lattice(n), RandomBond2D(n, seed=1))
    zero = np.zeros((system.n_sites, 2))
    peaks = []
    tracemalloc.start()
    try:
        for build in (system.hessian, lambda w: system.operator(w)._H):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            H = build(zero)
            peaks.append((tracemalloc.get_traced_memory()[1] - base, H))
    finally:
        tracemalloc.stop()
    for peak, H in peaks:
        assert peak <= 2.5 * (H.data.nbytes + H.indices.nbytes + H.indptr.nbytes)


def cell_callbacks(system, F):
    """``newton`` callbacks of the cell problems at the gradient stack F."""
    return (lambda w, rows: system.energy(w, F[rows]),
            lambda w, rows: (system.gradient(w, F[rows]), 0.0),
            lambda w, rows: system.operator(w, F[rows]))


def test_collapsing_step_is_halved_for_its_entry_only(monkeypatch):
    # the shift states of tests/test_mqc.py in the corrector gauge: entry 0's
    # full Newton step collapses a hard-core bond, entries 1 and 2 accept theirs
    from test_mqc import _HardCoreDynamicsModel

    from hqclab.potential import PotentialError

    model = _HardCoreDynamicsModel()
    system = compile_system(Multilattice(1, 1, model.shifts()), model)
    F = np.array([[[0.2]], [[0.2]], [[0.05]]])
    shifts = np.array([-0.062, 0.1, 0.03])
    w0 = np.stack([-shifts / 2, shifts / 2], axis=1)[:, :, None]
    energy, gradient, hessian = cell_callbacks(system, F)
    step = GaugeFixedOperator(system.hessian(w0[0], F[0]), 1, None).solve(-gradient(w0[:1], [0])[0][0])
    with pytest.raises(PotentialError):
        system.energy(w0[0] + step, F[0])

    trials = []
    real = network.energies_or_inf

    def counted(energy, w, rows):
        trials.append(len(rows))
        return real(energy, w, rows)

    monkeypatch.setattr(network, "energies_or_inf", counted)
    threshold = 1e-12 * (1 + np.abs(F[:, 0, 0]))
    stacked = network.newton(energy, gradient, hessian, w0, threshold)
    assert trials[:2] == [3, 1]   # only entry 0 is tried again, with half the step
    monkeypatch.undo()
    for t in range(3):
        single = network.newton(*cell_callbacks(system, F[t:t + 1]), w0[t:t + 1], threshold[t])
        assert np.array_equal(stacked.w[t], single.w[0])


def test_unconverged_entry_fails_the_whole_stack():
    # entry 1 starts 0.02 off its shift and needs more than two Newton steps;
    # the other entries start converged
    from hqclab.hqc import MICRO_TOL, micro_solve

    model = make_dynamics_model().model
    system = compile_system(Multilattice(1, 1, model.shifts()), model)
    F = np.array([[[0.01]], [[-0.02]], [[0.03]], [[0.05]]])
    w0 = micro_solve(system, F)
    w0[1] += [[-0.01], [0.01]]
    threshold = MICRO_TOL * (1 + np.abs(F[:, 0, 0]))
    with pytest.raises(SolverError, match=r"residual \d\.\d{3}e[-+]\d+ on 1 of 4 entries after 2 iterations"):
        network.newton(*cell_callbacks(system, F), w0, threshold, max_iter=2)
    rest = [0, 2, 3]
    result = network.newton(*cell_callbacks(system, F[rest]), w0[rest], threshold[rest], max_iter=2)
    assert np.array_equal(result.w, w0[rest]) and result.iterations == 0


def test_an_entry_inside_its_rounding_band_stops():
    # both entries start a little off their correctors, above the threshold:
    # entry 0's band reaches its residual and it stops at once; entry 1's
    # band leaves it above, and with no step allowed the stack fails on it
    from hqclab.hqc import MICRO_TOL, micro_solve

    model = make_dynamics_model().model
    system = compile_system(Multilattice(1, 1, model.shifts()), model)
    F = np.array([[[0.01]], [[-0.02]]])
    w0 = micro_solve(system, F) + np.array([[-1e-6], [1e-6]])
    threshold = MICRO_TOL * (1 + np.abs(F[:, 0, 0]))
    res = avg_norm(system.gradient(w0, F))
    assert np.all(res > threshold)
    band = np.array([res[0] - 0.5 * threshold[0], 0.5 * (res[1] - threshold[1])])
    energy, gradient, operator = cell_callbacks(system, F)

    def banded(w, rows):
        return gradient(w, rows)[0], band[rows]

    with pytest.raises(SolverError, match=r"on 1 of 2 entries after 0 iterations"):
        network.newton(energy, banded, operator, w0, threshold, max_iter=0)
    result = network.newton(energy, banded, operator, w0[:1], threshold[:1], max_iter=0)
    assert np.array_equal(result.w, w0[:1]) and result.iterations == 0
    assert threshold[0] < result.residual <= threshold[0] + band[0]


# ------------------------------------------------ the rounding floor of Newton

#: element gradients of the dynamics chain's one-cell system whose converged
#: float residuals stall above MICRO_TOL (1 + |F|): 28 of these 31 with one LJ
#: term per directed bond, all 31 with pair bonds
COMPRESSIONS = -0.56 + 0.005 * np.arange(31)


def three_species_lj():
    """An LJ chain cell with no inversion symmetry: under COMPRESSIONS its
    converged bond forces reach 3.4e6 and do not cancel per site."""
    return LennardJones1D(LennardJonesParams(s=(1.0, 1.5, 0.7), ell=(1.0, 1.02, 0.98), cutoff=2.0))


def exact_row_sums(system, forces, f_ext=None):
    """D forces - f_ext by ``math.fsum`` over each incidence row, per stack
    entry and component."""
    D = system.incidence
    out = np.empty((len(forces), system.n_sites, system.d))
    for t in range(len(forces)):
        for i in range(system.n_sites):
            cols, signs = D.indices[D.indptr[i]:D.indptr[i + 1]], D.data[D.indptr[i]:D.indptr[i + 1]]
            for c in range(system.d):
                extra = [] if f_ext is None else [-f_ext[i, c]]
                out[t, i, c] = math.fsum(list(signs * forces[t, cols, c]) + extra)
    return out


@pytest.mark.parametrize("lattice, model", [
    (chain_lattice(Fraction(1, 8), 2), make_dynamics_model().model),
    (square_lattice(4), RandomBond2D(4, seed=3)),
], ids=["d1", "d2"])
def test_row_sums_are_within_their_rounding_band_under_heavy_cancellation(lattice, model):
    # bond forces of +-1e4 per stack entry and component with residues near
    # 1e-12: every site is the source of as many bonds as it is the target
    # of, so each row cancels to its residues, which the float scatter loses
    # to rounding, but by no more than the band
    system = compile_system(lattice, model)
    rng = np.random.default_rng(5)
    k, nb, d = 3, len(system.src), system.d
    forces = 1e4 * rng.choice([-1.0, 1.0], size=(k, 1, d)) + 1e-12 * rng.standard_normal((k, nb, d))
    f_ext = 1e-12 * rng.standard_normal((system.n_sites, d))
    g = system._scatter(forces)
    exact = exact_row_sums(system, forces)
    assert not np.array_equal(g, exact)
    assert np.all(avg_norm(g - exact) <= network.rounding_band(system, forces, None))
    exact = exact_row_sums(system, forces, f_ext)
    assert np.all(avg_norm(g - f_ext - exact) <= network.rounding_band(system, forces, f_ext))


def test_micro_solve_converges_at_its_rounding_floor():
    # under these compressions the bond forces reach 1e5 (dynamics chain) or
    # 3.4e6 (three species): the float residual of a converged corrector may
    # stay above the threshold by its rounding, and the band stops every
    # entry, one at a time or as one stack, with the exact residual inside it
    from hqclab.hqc import MICRO_TOL, micro_solve

    F = COMPRESSIONS[:, None, None]
    threshold = MICRO_TOL * (1 + np.abs(COMPRESSIONS))
    for model in (make_dynamics_model().model, three_species_lj()):
        system = compile_system(Multilattice(1, 1, model.shifts()), model)
        chi = micro_solve(system, F)
        forces = system.bond_forces(chi, F)
        assert np.abs(forces).max() > 7e4
        band = network.rounding_band(system, forces, None)
        assert np.all(avg_norm(exact_row_sums(system, forces)) <= threshold + band)
        for t in range(len(F)):
            assert np.array_equal(micro_solve(system, F[t:t + 1])[0], chi[t])
