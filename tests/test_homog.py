"""Cell problems, homogenized density, and the analytic 1D oracle."""

import numpy as np
import pytest
from fractions import Fraction

from hqclab.fem import build_mesh, load_from_lattice
from hqclab.hqc import macro_newton
from hqclab.homog import (
    HomogenizedDensity,
    cell_system,
    harmonic_mean,
    solve_cell_problem,
)
from hqclab.lattice import LatticeField, chain_lattice
from hqclab.potential import LinearSpring1D, RandomBond2D, make_dynamics_model
from support import constant_tensor_stiffness


def test_simple_lattice_trivial_corrector():
    model = LinearSpring1D((2.0,))
    chi = solve_cell_problem(model, [[1.0]])
    assert np.allclose(chi, 0.0)


def test_zero_gradient_zero_corrector():
    model = LinearSpring1D((1.0, 3.0))
    chi = solve_cell_problem(model, [[0.0]])
    assert np.allclose(chi, 0.0)


def test_two_spring_cell_solution():
    # psi = (1, 3), F = 1, r = 1/2: flux constancy gives bond gaps
    # <1/psi>^-1 F r / psi = (0.75, 0.25)
    model = LinearSpring1D((1.0, 3.0))
    F = np.array([[1.0]])
    chi = solve_cell_problem(model, F)
    gaps = [0.5 + chi[1, 0] - chi[0, 0], 0.5 + chi[0, 0] - chi[1, 0]]
    assert gaps[0] == pytest.approx(0.75, abs=1e-12)
    assert gaps[1] == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_flux_constancy(m):
    rng = np.random.default_rng(m)
    psi = tuple(rng.uniform(0.5, 5.0, m))
    model = LinearSpring1D(psi)
    F = float(rng.uniform(-2, 2))
    chi = solve_cell_problem(model, [[F]])
    r = 1.0 / m
    fluxes = []
    for alpha in range(m):
        beta = (alpha + 1) % m
        gap = F * r + chi[beta, 0] - chi[alpha, 0]
        fluxes.append(psi[alpha] * gap)
    assert np.max(np.abs(np.diff(fluxes))) < 1e-12 * (1 + abs(F))


def test_phi0_closed_form_worked_example():
    model = LinearSpring1D((1.0, 3.0))
    density = HomogenizedDensity(model)
    assert density.phi0([[1.0]]) == pytest.approx(0.1875, abs=1e-14)
    assert density.at([[1.0]]).stress[0, 0, 0] == pytest.approx(0.375, abs=1e-12)


def test_phi0_harmonic_average_random():
    # cell-problem Phi0 equals <1/psi>^-1 (F r)^2 / 2 for random chains
    rng = np.random.default_rng(123)
    for _ in range(20):
        m = int(rng.integers(2, 6))
        psi = tuple(rng.uniform(0.2, 8.0, m))
        F = float(rng.uniform(-3, 3))
        density = HomogenizedDensity(LinearSpring1D(psi))
        expected = harmonic_mean(psi) * (F / m) ** 2 / 2
        assert density.phi0([[F]]) == pytest.approx(expected, rel=1e-12)


def test_harmonic_mean_values():
    assert harmonic_mean([3.0, 3.0, 3.0]) == pytest.approx(3.0)
    assert harmonic_mean([1.0, 3.0]) == pytest.approx(1.5)
    psi1, psi2 = 0.7, 4.2
    assert harmonic_mean([psi1, psi2]) == pytest.approx(2 * psi1 * psi2 / (psi1 + psi2))
    with pytest.raises(ValueError):
        harmonic_mean([1.0, -2.0])


def test_homogeneous_chain_identity():
    c = 2.3
    density = HomogenizedDensity(LinearSpring1D((c, c)))
    F = 0.8
    assert density.phi0([[F]]) == pytest.approx(c * (F / 2) ** 2 / 2, rel=1e-12)


def test_envelope_property():
    # dPhi0 without the corrector sensitivity equals finite differences of Phi0
    rng = np.random.default_rng(4)
    models = [LinearSpring1D((1.0, 3.0, 0.5)), make_dynamics_model().model]
    scales = [1.0, 0.05]
    for model, scale in zip(models, scales):
        density = HomogenizedDensity(model)
        for _ in range(5):
            F = scale * rng.uniform(-1, 1)
            step = 1e-5 * max(abs(F), 1.0)
            exact = density.at([[F]]).stress[0, 0, 0]
            fd = (density.phi0([[F + step]]) - density.phi0([[F - step]])) / (2 * step)
            assert exact == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_quadratic_scaling_and_symmetry():
    density = HomogenizedDensity(LinearSpring1D((1.0, 3.0)))
    F = 0.7
    base = density.phi0([[F]])
    for lam in (0.5, 2.0):
        assert density.phi0([[lam * F]]) == pytest.approx(lam**2 * base, rel=1e-12)
    assert density.phi0([[-F]]) == pytest.approx(base, rel=1e-12)
    # the stress is linear in F for quadratic models
    assert density.at([[2 * F]]).stress[0, 0, 0] == pytest.approx(2 * density.at([[F]]).stress[0, 0, 0], rel=1e-10)


def test_guess_determinism():
    model = LinearSpring1D((1.0, 3.0))
    F = np.array([[0.9]])
    chi1 = solve_cell_problem(model, F)
    chi2 = solve_cell_problem(model, F)
    assert np.array_equal(chi1, chi2)


def test_residual_tolerance():
    model = make_dynamics_model().model
    F = np.array([[0.03]])
    system = cell_system(model)
    chi = solve_cell_problem(model, F)
    res = system.gradient(chi, F)
    assert np.sqrt(np.mean(res**2)) <= 1e-12 * (1 + np.linalg.norm(F))


def test_homogenized_fem_zero_force():
    density = HomogenizedDensity(LinearSpring1D((1.0, 3.0)))
    mesh = build_mesh(1, 4)
    u = macro_newton(mesh, density, None, 1e-10)[0]
    assert np.allclose(u.values, 0.0, atol=1e-12)


def test_homogenized_fem_matches_constant_coefficient_oracle():
    # the 1D homogenized FEM is the P1 method with density
    # (1/2) psi0 (grad u * r)^2, i.e. coefficient psi0 r^2 on plain gradients
    psi = (1.0, 3.0)
    m = 2
    model = LinearSpring1D(psi)
    density = HomogenizedDensity(model)
    mesh = build_mesh(1, 8)
    lat = chain_lattice(Fraction(1, 64), m)
    rng = np.random.default_rng(8)
    fvals = rng.standard_normal((lat.n_sites, 1))
    fvals -= fvals.mean(axis=0)
    load = load_from_lattice(mesh, LatticeField(lat, fvals))
    u = macro_newton(mesh, density, load, 1e-12)[0]

    coeff = harmonic_mean(psi) / m**2
    K = np.asarray(constant_tensor_stiffness(mesh, np.array(coeff)).todense())
    A = np.zeros((mesh.n_vertices + 1,) * 2)
    A[:-1, :-1] = K
    A[:-1, -1] = 1.0
    A[-1, :-1] = 1.0
    rhs = np.concatenate([load.ravel(), [0.0]])
    expected = np.linalg.solve(A, rhs)[:-1]
    assert np.max(np.abs(u.values.ravel() - expected)) < 1e-12


def test_homogenized_fem_2d_homogeneous_oracle():
    # a uniform 2D bond network is a one-cell crystal: Phi0 is Cauchy-Born and
    # the macro Newton must match the constant-tensor P1 assembly
    from hqclab.lattice import square_lattice
    from hqclab.potential import RandomBond2D

    model = RandomBond2D(4, seed=0)
    model.psi[:, :2] = 2.0
    model.psi[:, 2:] = 1.0
    density = HomogenizedDensity(model)
    # components decouple; effective coefficient on each = psi_axis + 2 psi_diag
    F = np.array([[0.3, 0.0], [0.0, 0.0]])
    assert density.phi0(F) == pytest.approx(0.5 * 4.0 * 0.3**2, rel=1e-12)

    mesh = build_mesh(2, 4)
    lat = square_lattice(16)
    rng = np.random.default_rng(31)
    fvals = rng.standard_normal((lat.n_sites, 2))
    fvals -= fvals.mean(axis=0)
    load = load_from_lattice(mesh, LatticeField(lat, fvals))
    u = macro_newton(mesh, density, load, 1e-11)[0]

    A = np.zeros((2, 2, 2, 2))
    for i in range(2):
        for j in range(2):
            A[i, j, i, j] = 4.0
    K = np.asarray(constant_tensor_stiffness(mesh, A).todense())
    n_dof = K.shape[0]
    Aug = np.zeros((n_dof + 2, n_dof + 2))
    Aug[:n_dof, :n_dof] = K
    # Lagrange constraints: zero mean per component
    for comp in range(2):
        Aug[comp:n_dof:2, n_dof + comp] = 1.0
        Aug[n_dof + comp, comp:n_dof:2] = 1.0
    rhs = np.concatenate([load.ravel(), [0.0, 0.0]])
    expected = np.linalg.solve(Aug, rhs)[:n_dof]
    assert np.max(np.abs(u.values.ravel() - expected)) < 1e-9


def test_corrector_is_a_function_of_F():
    # two gradients 4e-13 apart get their own correctors, each equal to a
    # fresh cell solve at that gradient
    model = LinearSpring1D((1.0, 3.0))
    density = HomogenizedDensity(model)
    F = np.array([[0.7]])
    for G in (F, F + 4e-13):
        assert np.array_equal(density.at(G).chi[0], solve_cell_problem(model, G))


def _uniform_network():
    model = RandomBond2D(4, seed=0)
    model.psi[:, :2] = 2.0
    model.psi[:, 2:] = 1.0
    return model


@pytest.mark.parametrize("make_model, scale", [
    pytest.param(lambda: LinearSpring1D((1.0, 3.0)), 0.3, id="springs-2"),
    pytest.param(lambda: LinearSpring1D((1.0, 3.0, 0.5)), 0.3, id="springs-3"),
    pytest.param(lambda: make_dynamics_model().model, 0.02, id="lj-chain"),
    pytest.param(_uniform_network, 0.2, id="uniform-network"),
])
def test_stacked_density_matches_single_calls(make_model, scale):
    model = make_model()
    density = HomogenizedDensity(model)
    d = model.d
    grads = scale * np.random.default_rng(9).standard_normal((5, d, d))
    phi = density.phi0(grads)
    assert phi.shape == (5,)
    assert np.array_equal(phi, [density.phi0(F) for F in grads])
    assert all(type(density.phi0(F)) is float for F in grads)
    for name, shape in (("chi", (model.m, d)), ("stress", (d, d)), ("tangent", (d,) * 4)):
        stacked = getattr(density.at(grads), name)
        singles = [getattr(density.at(F), name)[0] for F in grads]
        assert stacked.shape == (5,) + shape and all(x.shape == shape for x in singles)
        assert np.array_equal(stacked, singles)


def test_homog_binds_no_hqc_operator():
    # the corrector route of the equivalence check stays independent of the
    # HQC operator and its quadratic effective-tensor shortcut
    from hqclab import homog, hqc

    for name in ("HQCOperator", "_TENSORS"):
        assert not hasattr(homog, name)
    assert not any(value is hqc.HQCOperator or value is hqc._TENSORS
                   for value in vars(homog).values())
