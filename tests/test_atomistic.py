"""Full-atomistic reference: energies, equilibria, eigenmodes."""

import numpy as np
import pytest
import scipy.linalg
from fractions import Fraction

from hqclab.atomistic import (
    EquilibriumProblem,
    energy_hessian,
    slowest_eigenmode,
    solve_equilibrium,
    total_energy,
)
from hqclab.lattice import (
    LatticeField,
    Multilattice,
    average,
    chain_lattice,
    l2_norm,
    square_lattice,
)
from hqclab.network import SolverError
from hqclab.potential import LinearSpring1D, RandomBond2D, make_dynamics_model, make_stochastic_model
from support import GapScaledSystem, energy_gradient, gap_scaled_solve, residual_norm, vector_solve, zeros_field


def spring_problem(eps, psi, force=None):
    model = LinearSpring1D(psi)
    lat = chain_lattice(eps, model.m)
    return EquilibriumProblem(lat, model, force=force), lat


def test_zero_displacement_zero_energy():
    prob, lat = spring_problem(Fraction(1, 8), (1.0, 3.0))
    assert total_energy(prob, zeros_field(lat)) == 0.0


def test_alternating_displacement_energy():
    # m=2, eps=1/2, psi=(1,3), u alternating 0/0.05 on the 4 sites: every bond
    # gap is +-0.05/eps = +-0.1, so E = <psi * 0.01 / 2> = (1+3+1+3)*0.005/4
    prob, lat = spring_problem(Fraction(1, 2), (1.0, 3.0))
    u = LatticeField(lat, np.array([[0.0], [0.05], [0.0], [0.05]]))
    assert total_energy(prob, u) == pytest.approx(0.01)


def test_translation_invariance():
    rng = np.random.default_rng(0)
    prob, lat = spring_problem(Fraction(1, 8), (1.0, 2.0, 5.0))
    u = LatticeField(lat, rng.standard_normal((lat.n_sites, 1)))
    shifted = LatticeField(lat, u.values + 0.37)
    assert total_energy(prob, u) == pytest.approx(total_energy(prob, shifted), rel=1e-12)


def test_gradient_zero_mean_and_fd():
    rng = np.random.default_rng(1)
    for model in (LinearSpring1D((1.0, 3.0)), make_dynamics_model().model):
        lat = chain_lattice(Fraction(1, 4), model.m)
        prob = EquilibriumProblem(lat, model)
        u = LatticeField(lat, 0.02 * rng.standard_normal((lat.n_sites, 1)))
        g = energy_gradient(prob, u)
        assert np.all(np.abs(average(g)) < 1e-12)
        step = 1e-5
        for k in (0, 3, lat.n_sites - 1):
            up = u.copy()
            um = u.copy()
            up.values[k, 0] += step
            um.values[k, 0] -= step
            fd = (total_energy(prob, up) - total_energy(prob, um)) / (2 * step)
            # Riesz representer: dE/du(x) = g(x)/n_sites
            exact = g.values[k, 0] / lat.n_sites
            assert fd == pytest.approx(exact, rel=1e-6, abs=1e-10)


def test_hessian_symmetric_with_constant_kernel():
    prob, lat = spring_problem(Fraction(1, 8), (1.0, 3.0))
    H = energy_hessian(prob, zeros_field(lat))
    dense = np.asarray(H.todense())
    assert np.allclose(dense, dense.T, atol=1e-12)
    assert np.allclose(dense @ np.ones(lat.n_sites), 0.0, atol=1e-12)


def test_equilibrium_without_force_is_zero():
    prob, lat = spring_problem(Fraction(1, 8), (2.0, 1.0))
    u = solve_equilibrium(prob)
    assert np.allclose(u.values, 0.0, atol=1e-12)


def _dense_spring_solve(lat, psi, f):
    """Independent oracle: assemble the spring-chain stiffness by hand and
    solve with a Lagrange multiplier for the zero mean."""
    n = lat.n_sites
    eps = lat.eps_float
    K = np.zeros((n, n))
    order = np.argsort(lat.site_positions().ravel())
    for idx in range(n):
        i = order[idx]
        j = order[(idx + 1) % n]
        k = psi[idx % len(psi)] / eps**2
        K[i, i] += k
        K[j, j] += k
        K[i, j] -= k
        K[j, i] -= k
    # <dE(u), v> uses the averaged pairing; the pointwise force equation is
    # K u = f with K the Riesz Hessian
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = K
    A[:n, n] = 1.0
    A[n, :n] = 1.0
    rhs = np.concatenate([f.values.ravel(), [0.0]])
    sol = np.linalg.solve(A, rhs)
    return sol[:n]


def test_equilibrium_matches_dense_oracle():
    rng = np.random.default_rng(7)
    psi = (1.0, 3.0)
    model = LinearSpring1D(psi)
    lat = chain_lattice(Fraction(1, 16), 2)  # 32 sites
    fvals = rng.standard_normal((lat.n_sites, 1))
    fvals -= fvals.mean(axis=0)
    f = LatticeField(lat, fvals)
    prob = EquilibriumProblem(lat, model, force=f)
    u = solve_equilibrium(prob, tol=1e-12)
    expected = _dense_spring_solve(lat, psi, f)
    assert np.max(np.abs(u.values.ravel() - expected)) < 1e-10


def test_lj_equilibrium_residual():
    setup = make_dynamics_model()
    lat = chain_lattice(Fraction(1, 16), 2)
    prob = EquilibriumProblem(lat, setup.model, masses=setup.mass_field(lat))
    rng = np.random.default_rng(5)
    guess = LatticeField(lat, 1e-3 * rng.standard_normal((lat.n_sites, 1)))
    u = solve_equilibrium(prob, initial_guess=guess, tol=1e-10)
    assert residual_norm(prob, u) <= 1e-10 * (1 + 0)
    assert np.all(np.abs(average(u)) < 1e-12)


def test_quadratic_solve_guess_independent():
    rng = np.random.default_rng(9)
    psi = (1.0, 4.0)
    model = LinearSpring1D(psi)
    lat = chain_lattice(Fraction(1, 8), 2)
    fvals = rng.standard_normal((lat.n_sites, 1))
    fvals -= fvals.mean(axis=0)
    prob = EquilibriumProblem(lat, model, force=LatticeField(lat, fvals))
    u1 = solve_equilibrium(prob, tol=1e-12)
    guess = LatticeField(lat, rng.standard_normal((lat.n_sites, 1)))
    u2 = solve_equilibrium(prob, initial_guess=guess, tol=1e-12)
    assert np.allclose(u1.values, u2.values, atol=1e-11)


def _smooth_force(lat, scale):
    x = lat.site_positions()
    f = scale * np.sin(2 * np.pi * x[:, :1]) * np.cos(2 * np.pi * x[:, -1:]) + 0.3 * scale * np.cos(6 * np.pi * x)
    return LatticeField(lat, f - f.mean(axis=0))


def _oracle_cases(eps):
    """(id, problem, displacement scale) on chains of spacing ``eps``, and at
    power-of-two eps also the random network of the stochastic study."""
    spring = LinearSpring1D((1.0, 3.0))
    lj_lat, spring_lat = chain_lattice(eps, 2), chain_lattice(eps, 2)
    cases = [("lj-chain", EquilibriumProblem(lj_lat, make_dynamics_model().model, force=_smooth_force(lj_lat, 0.1)),
              0.01 * lj_lat.eps_float),
             ("spring-chain", EquilibriumProblem(spring_lat, spring, force=_smooth_force(spring_lat, 1.0)), 0.1)]
    if (1 / eps) % 2 == 0:
        lat, model, f = make_stochastic_model(int(1 / eps), seed=3)
        cases.append(("network", EquilibriumProblem(lat, model, force=f), 0.1))
    return cases


@pytest.mark.parametrize("eps", [Fraction(1, 16), Fraction(1, 3)], ids=["eps-1/16", "eps-1/3"])
def test_corrector_variables_reproduce_the_gap_scaled_formula(eps):
    # energy, gradient, Hessian and equilibrium in chi = u / eps against the
    # same network in displacement variables with its gaps divided by eps:
    # bit for bit at power-of-two eps, where scaling by eps is exact, and to
    # rounding at eps = 1/3
    exact = eps.numerator == 1 and not (eps.denominator & (eps.denominator - 1))
    rng = np.random.default_rng(21)
    for name, prob, scale in _oracle_cases(eps):
        lat = prob.lattice
        oracle = GapScaledSystem(prob)
        u = LatticeField(lat, scale * rng.standard_normal((lat.n_sites, lat.d)))
        e, g, H = total_energy(prob, u), energy_gradient(prob, u).values, energy_hessian(prob, u)
        e_ref, g_ref, H_ref = oracle.energy(u.values), oracle.gradient(u.values), oracle.hessian(u.values)
        assert np.array_equal(H.indptr, H_ref.indptr) and np.array_equal(H.indices, H_ref.indices), name
        if exact:
            assert e == e_ref and np.array_equal(g, g_ref) and np.array_equal(H.data, H_ref.data), name
        else:
            assert e == pytest.approx(e_ref, rel=1e-14), name
            assert np.max(np.abs(g - g_ref)) <= 1e-14 * np.max(np.abs(g_ref)), name
            assert np.max(np.abs(H.data - H_ref.data)) <= 1e-14 * np.max(np.abs(H_ref.data)), name
        # the loose tolerance stops the LJ Newton before its last step
        for tol in (1e-11, 1e-5):
            u_eq, u_ref = solve_equilibrium(prob, tol=tol), gap_scaled_solve(prob, tol=tol)
            assert residual_norm(prob, u_eq) <= tol * (1 + l2_norm(prob.force)), name
            if exact:
                assert np.array_equal(u_eq.values, u_ref.values), name
            else:
                assert np.max(np.abs(u_eq.values - u_ref.values)) <= 10 * tol * np.max(np.abs(u_ref.values)), name


def _vector_route_cases():
    """(id, problem, exact) of spring problems: the random network on a grid
    (PCG), a two-species 2D multilattice on a grid, and the two-species chain."""
    from test_mqc import _TwoSpecies2D

    lat, model, f = make_stochastic_model(16, seed=2)
    two = _TwoSpecies2D(psi0=1.0, psi1=3.0)
    lat2, chain = Multilattice(2, Fraction(1, 8), two.shifts()), chain_lattice(Fraction(1, 16), 2)
    return [
        ("network", EquilibriumProblem(lat, model, force=f), False),
        ("two-species-2d", EquilibriumProblem(lat2, two, force=_smooth_force(lat2, 1.0)), False),
        ("spring-chain", EquilibriumProblem(chain, LinearSpring1D((1.0, 3.0)), force=_smooth_force(chain, 1.0)),
         True),
    ]


@pytest.mark.parametrize("name, prob, exact", _vector_route_cases(), ids=[c[0] for c in _vector_route_cases()])
def test_scalar_laplacian_solve_matches_the_full_hessian_solve(name, prob, exact):
    # a spring problem solves d scalar columns on L; the full Hessian L (x) I_d
    # gives the same equilibrium to rounding, and bit for bit on a chain
    for tol in (1e-11, 1e-8):
        u, ref = solve_equilibrium(prob, tol=tol).values, vector_solve(prob, tol=tol).values
        if exact:
            assert np.array_equal(u, ref)
        else:
            assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_reference_and_full_sampling_share_one_system():
    # the reference on N cells is the micro problem of HQC's full sampling
    from hqclab.fem import build_mesh
    from hqclab.hqc import HQCOperator

    lat, model, _ = make_stochastic_model(16, seed=2)
    op = HQCOperator(model, lat, build_mesh(2, 4), n_rep=16)
    assert EquilibriumProblem(lat, model).system is op.system
    assert EquilibriumProblem(square_lattice(16), model).system is op.system


def test_a_lattice_beyond_the_network_grid_is_refused():
    # the strengths live on the model's 8 x 8 grid: a 16 x 16 lattice has cells
    # off it, while a 4 x 4 lattice takes the grid's corner
    from hqclab.network import compile_system
    from hqclab.potential import PotentialError

    model = RandomBond2D(8, seed=1)
    with pytest.raises(PotentialError, match="8 x 8 grid"):
        compile_system(square_lattice(16), model)
    with pytest.raises(PotentialError, match="8 x 8 grid"):
        EquilibriumProblem(square_lattice(16), model).system
    corner = model.psi.reshape(8, 8, 4)[:4, :4].reshape(16, 4)
    assert np.array_equal(compile_system(square_lattice(4), model).law.psi, corner.T.ravel())


def test_nonzero_mean_force_rejected():
    model = LinearSpring1D((1.0,))
    lat = chain_lattice(Fraction(1, 4), 1)
    bad = LatticeField(lat, np.ones((lat.n_sites, 1)))
    with pytest.raises(ValueError):
        EquilibriumProblem(lat, model, force=bad)


def test_a_force_on_another_lattice_is_refused():
    lat, other = chain_lattice(Fraction(1, 32), 1), chain_lattice(Fraction(1, 64), 1)
    force = LatticeField(other, np.sin(2 * np.pi * other.site_positions()))
    with pytest.raises(ValueError, match="another lattice"):
        EquilibriumProblem(lat, LinearSpring1D((1.0,)), force=force)


def test_homogeneous_chain_eigenmode():
    # m=1 chain with constant psi and mass: smallest nonzero eigenvalue of the
    # periodic difference operator is 4 psi sin^2(pi eps) / (eps^2 M)
    psi = 2.0
    M = 1.5
    model = LinearSpring1D((psi,))
    lat = chain_lattice(Fraction(1, 16), 1)
    prob = EquilibriumProblem(lat, model, masses=np.full(lat.n_sites, M))
    u_eq = solve_equilibrium(prob)
    mode, lam = slowest_eigenmode(prob, u_eq)
    eps = lat.eps_float
    expected = 4 * psi * np.sin(np.pi * eps) ** 2 / (eps**2 * M)
    assert lam == pytest.approx(expected, rel=1e-10)
    assert l2_norm(mode) == pytest.approx(1.0)
    # mass-orthogonal to translations
    assert abs(np.sum(prob.masses * mode.values.ravel())) < 1e-8


def test_eigenmode_rayleigh_minimality():
    setup = make_dynamics_model()
    lat = chain_lattice(Fraction(1, 8), 2)
    prob = EquilibriumProblem(lat, setup.model, masses=setup.mass_field(lat))
    u_eq = solve_equilibrium(prob)
    mode, lam = slowest_eigenmode(prob, u_eq)
    H = np.asarray(energy_hessian(prob, u_eq).todense())
    M = np.diag(prob.masses)
    rng = np.random.default_rng(17)
    for _ in range(20):
        v = rng.standard_normal(lat.n_sites)
        v -= (prob.masses * v).sum() / prob.masses.sum()  # drop the translation
        rq = (v @ H @ v) / (v @ M @ v)
        assert lam <= rq + 1e-10
    assert lam > 0


def test_dynamics_equilibrium_stable():
    setup = make_dynamics_model()
    lat = chain_lattice(Fraction(1, 8), 2)
    prob = EquilibriumProblem(lat, setup.model, masses=setup.mass_field(lat))
    u_eq = solve_equilibrium(prob)
    _, lam = slowest_eigenmode(prob, u_eq)
    assert lam > 0


def _lj_chain_problem():
    setup = make_dynamics_model()
    lat = chain_lattice(Fraction(1, 16), 2)
    return EquilibriumProblem(lat, setup.model, masses=setup.mass_field(lat))


def _asymmetric_spring_problem():
    # three species with distinct springs and masses: no reflection symmetry,
    # so the cosine waves alone do not span an invariant subspace
    lat = chain_lattice(Fraction(1, 8), 3)
    return EquilibriumProblem(lat, LinearSpring1D((1.0, 2.0, 4.0)), masses=np.tile([1.0, 3.0, 2.0], lat.n_cells))


@pytest.mark.parametrize("make_problem", [_lj_chain_problem, _asymmetric_spring_problem])
def test_eigenmode_matches_dense_eigenspace(make_problem):
    # dense generalized eigensolve of the whole Hessian as the oracle: the mode
    # is the M-projection of cos(2 pi x) onto the lowest nonzero eigenspace
    prob = make_problem()
    lat = prob.lattice
    u_eq = solve_equilibrium(prob)
    mode, lam = slowest_eigenmode(prob, u_eq)
    H = np.asarray(energy_hessian(prob, u_eq).todense())
    vals, vecs = scipy.linalg.eigh(H, np.diag(prob.masses))
    assert abs(vals[0]) < 1e-10 * vals[-1]  # the translation
    assert vals[2] - vals[1] < 1e-10 * vals[1] < vals[3] - vals[2]  # an isolated pair
    assert lam == pytest.approx(vals[1], rel=1e-10)
    pair = vecs[:, 1:3]  # M-orthonormal
    cosine = np.cos(2 * np.pi * lat.site_positions()[:, 0])
    expected = pair @ (pair.T @ (prob.masses * cosine))
    expected /= np.sqrt(np.mean(expected**2))
    expected *= np.sign(expected[0])
    assert np.max(np.abs(mode.values[:, 0] - expected)) < 1e-10


def _scipy_eigenmode(prob, u_eq):
    """The Rayleigh-Ritz step of ``slowest_eigenmode`` through scipy's
    generalized symmetric eigensolver: the oracle of its numpy reduction."""
    lat = prob.lattice
    phase = 2 * np.pi * lat.site_positions()
    onehot = lat.site_species()[:, None] == np.arange(lat.m)
    V = np.hstack([onehot * np.cos(phase), onehot * np.sin(phase)])
    B = V.T @ (prob.masses[:, None] * V)
    vals, vecs = scipy.linalg.eigh(V.T @ (energy_hessian(prob, u_eq) @ V), B)
    pair = vecs[:, :2]
    v = V @ (pair @ (pair.T @ (B @ np.repeat([1.0, 0.0], lat.m))))
    v /= np.sqrt(np.mean(v**2))
    return v * np.sign(v[np.nonzero(np.abs(v) > 1e-12 * np.max(np.abs(v)))[0][0]]), vals[0]


@pytest.mark.parametrize("n_atoms", [64, 1024])
def test_eigenmode_matches_the_scipy_generalized_eigensolve(n_atoms):
    setup = make_dynamics_model()
    lat = chain_lattice(Fraction(setup.model.m, n_atoms), setup.model.m)
    prob = EquilibriumProblem(lat, setup.model, masses=setup.mass_field(lat))
    u_eq = solve_equilibrium(prob)
    mode, lam = slowest_eigenmode(prob, u_eq)
    expected, lam_ref = _scipy_eigenmode(prob, u_eq)
    assert abs(lam - lam_ref) <= 1e-12 * lam_ref
    assert np.max(np.abs(mode.values[:, 0] - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_eigenmode_refuses_a_mass_matrix_that_is_not_positive_definite():
    prob = _lj_chain_problem()
    u_eq = solve_equilibrium(prob)
    prob.masses = -prob.masses   # past the constructor's check
    with pytest.raises(SolverError, match="not positive definite"):
        slowest_eigenmode(prob, u_eq)


def test_eigenmode_rejects_forced_equilibrium():
    # a forced equilibrium is not cell-periodic, so its Hessian is not block-circulant
    lat = chain_lattice(Fraction(1, 8), 2)
    model = make_dynamics_model().model
    x = lat.site_positions()
    f = LatticeField(lat, 0.5 * np.sin(2 * np.pi * x))
    prob = EquilibriumProblem(lat, model, force=f)
    u_eq = solve_equilibrium(prob)
    with pytest.raises(SolverError, match="cell-periodic"):
        slowest_eigenmode(prob, u_eq)


@pytest.mark.parametrize("n_cells", [1, 2])
def test_eigenmode_refuses_chains_of_two_cells_or_fewer(monkeypatch, n_cells):
    # on fewer than 3 cells the cos/sin 2 pi x pair is degenerate: refuse before building H
    import hqclab.atomistic as atomistic

    def no_hessian(*args):
        raise AssertionError("built the Hessian")

    setup = make_dynamics_model()
    lat = chain_lattice(Fraction(1, n_cells), 2)
    prob = EquilibriumProblem(lat, setup.model, masses=setup.mass_field(lat))
    monkeypatch.setattr(atomistic, "energy_hessian", no_hessian)
    with pytest.raises(SolverError, match=f"needs at least 3 cells, not {n_cells}"):
        slowest_eigenmode(prob, zeros_field(lat))
