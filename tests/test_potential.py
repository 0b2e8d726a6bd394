"""Material models: energies, derivatives, and the two model factories."""

from fractions import Fraction

import numpy as np
import pytest

from hqclab.lattice import chain_lattice, unit_cell
from hqclab.potential import (
    LennardJonesLaw,
    LinearSpring1D,
    ModelStack,
    PotentialError,
    RandomBond2D,
    external_force_2d,
    make_dynamics_model,
    make_stochastic_model,
)
from support import HardCoreLaw, PlainLJLaw, bitwise_equal, site_energy, site_gradient, site_hessian


def test_spring_site_energy_and_derivatives():
    model = LinearSpring1D((2.0,))
    assert site_energy(model, 0, [0.3]) == pytest.approx(0.09)
    (g,) = site_gradient(model, 0, [0.3])
    assert g == pytest.approx([0.6])
    blocks = site_hessian(model, 0, [0.3])
    assert np.allclose(blocks[0][0], [[2.0]])


def test_spring_zero_gap_energy():
    model = LinearSpring1D((1.0, 3.0))
    assert site_energy(model, 1, [0.0]) == 0.0


def test_lj_bond_minimum():
    # single bond with s = 1, ell = 1 at its equilibrium length: energy -1,
    # force zero, curvature positive
    law = LennardJonesLaw(np.array(1.0), np.array(1.0), scale=1.0)
    r = np.array([[1.0]])
    g = np.array([[0.0]])
    assert law.energy(g, r)[0] == pytest.approx(-1.0)
    assert law.grad(g, r)[0, 0] == pytest.approx(0.0, abs=1e-14)
    assert law.hess(g, r)[0, 0, 0] > 0


def test_quadratic_scaling():
    model = LinearSpring1D((1.0, 3.0))
    for lam in (0.5, 2.0, -1.3):
        assert site_energy(model, 0, [lam * 0.2]) == pytest.approx(lam**2 * site_energy(model, 0, [0.2]))


def _fd_gradient(model, alpha, gaps, cell=None, step=1e-5):
    gaps = [np.atleast_1d(np.asarray(g, float)) for g in gaps]
    out = []
    for j in range(len(gaps)):
        gj = np.zeros_like(gaps[j])
        for k in range(len(gaps[j])):
            plus = [g.copy() for g in gaps]
            minus = [g.copy() for g in gaps]
            plus[j][k] += step
            minus[j][k] -= step
            gj[k] = (site_energy(model, alpha, plus, cell) - site_energy(model, alpha, minus, cell)) / (2 * step)
        out.append(gj)
    return out


def _models_for_consistency():
    rng = np.random.default_rng(42)
    spring = LinearSpring1D((1.0, 3.0))
    lj = make_dynamics_model().model
    rb = RandomBond2D(4, seed=9)
    cases = []
    for alpha in range(2):
        gaps = [0.05 * rng.standard_normal(1) for _ in spring.bond_specs(alpha)]
        cases.append((spring, alpha, gaps, None))
    for alpha in range(2):
        gaps = [0.03 * rng.standard_normal(1) for _ in lj.bond_specs(alpha)]
        cases.append((lj, alpha, gaps, None))
    gaps = [0.1 * rng.standard_normal(2) for _ in rb.bond_specs(0, (1, 1))]
    cases.append((rb, 0, gaps, (1, 1)))
    return cases


def test_gradient_matches_finite_differences():
    for model, alpha, gaps, cell in _models_for_consistency():
        exact = site_gradient(model, alpha, gaps, cell)
        approx = _fd_gradient(model, alpha, gaps, cell)
        for a, b in zip(exact, approx):
            scale = max(np.max(np.abs(a)), 1e-3)
            assert np.allclose(a, b, rtol=0, atol=1e-6 * scale)


def test_hessian_matches_gradient_differences():
    step = 1e-5
    for model, alpha, gaps, cell in _models_for_consistency():
        blocks = site_hessian(model, alpha, gaps, cell)
        k = len(gaps)
        d = len(np.atleast_1d(gaps[0]))
        for j in range(k):
            for comp in range(d):
                plus = [np.array(g, float) for g in gaps]
                minus = [np.array(g, float) for g in gaps]
                plus[j][comp] += step
                minus[j][comp] -= step
                gp = site_gradient(model, alpha, plus, cell)
                gm = site_gradient(model, alpha, minus, cell)
                for i in range(k):
                    fd = (gp[i] - gm[i]) / (2 * step)
                    scale = max(np.max(np.abs(blocks[i][j])), 1.0)
                    assert np.allclose(blocks[i][j][:, comp], fd, atol=1e-5 * scale)


def test_hessian_block_symmetry():
    for model, alpha, gaps, cell in _models_for_consistency():
        blocks = site_hessian(model, alpha, gaps, cell)
        k = len(blocks)
        for i in range(k):
            for j in range(k):
                assert np.allclose(blocks[i][j], blocks[j][i].T, atol=1e-12)


def test_lj_collapse_raises():
    law = LennardJonesLaw(np.array(1.0), np.array(1.0), scale=1.0)
    with pytest.raises(PotentialError):
        law.energy(np.array([[-1.0]]), np.array([[1.0]]))


def test_gap_count_mismatch():
    model = LinearSpring1D((1.0, 2.0))
    with pytest.raises(PotentialError):
        site_energy(model, 0, [0.1, 0.2])


def test_dynamics_model_parameters():
    setup = make_dynamics_model()
    model = setup.model
    # integer sites (species 0): strong stiff short bonds, heavy mass
    assert model.params.s == (1.6, 0.4)
    assert model.params.ell == (0.99, 1.01)
    assert setup.species_masses == (2.0, 1.0)
    # one bond per atom pair, listed by its left end: the sites within 3
    # lattice units to the right at spacing 1/2, 6 offsets per species, each
    # with the owner's plus the target's LJ coefficients
    s, ell = np.array(model.params.s), np.array(model.params.ell)
    for alpha in range(2):
        specs = model.bond_specs(alpha)
        assert [float(spec.offset.r_float[0]) for spec in specs] == [x / 2 for x in range(1, 7)]
        for spec in specs:
            beta = spec.offset.species_target
            assert beta == (alpha + 2 * float(spec.offset.r_float[0])) % 2
            assert spec.law.a6 == s[alpha] * ell[alpha]**6 + s[beta] * ell[beta]**6
            assert spec.law.a12 == s[alpha] * ell[alpha]**12 + s[beta] * ell[beta]**12
            assert spec.law.scale == 2.0


def test_dynamics_mass_field():
    from fractions import Fraction
    from hqclab.lattice import chain_lattice

    setup = make_dynamics_model()
    lat = chain_lattice(Fraction(1, 4), 2)
    masses = setup.mass_field(lat)
    pos = lat.site_positions().ravel()
    integer_sites = np.isclose(np.mod(pos / lat.eps_float, 1.0), 0.0)
    assert np.all(masses[integer_sites] == 2.0)
    assert np.all(masses[~integer_sites] == 1.0)


def test_stochastic_force_value():
    # before mean subtraction: f(1/4, 1/4) = 10 e^{-1} (1, 1)
    val = external_force_2d(np.array([[0.25, 0.25]]))[0]
    assert np.allclose(val, 10 * np.exp(-1.0) * np.ones(2), atol=1e-14)


def test_stochastic_model_zero_mean_force():
    _, _, f = make_stochastic_model(8, seed=3)
    assert np.all(np.abs(f.values.mean(axis=0)) <= 1e-12 * np.max(np.abs(f.values)))


def test_stochastic_model_reproducible():
    _, m1, f1 = make_stochastic_model(8, seed=123)
    _, m2, f2 = make_stochastic_model(8, seed=123)
    assert np.array_equal(m1.psi, m2.psi)
    assert np.array_equal(f1.values, f2.values)
    _, m3, _ = make_stochastic_model(8, seed=124)
    assert not np.array_equal(m1.psi, m3.psi)


def test_stochastic_bond_ranges():
    model = RandomBond2D(16, seed=0)
    axis = model.psi[:, :2]
    diag = model.psi[:, 2:]
    assert axis.min() >= 0.5 and axis.max() <= 10.0
    assert diag.min() >= 0.1 and diag.max() <= 5.0


def test_stochastic_requires_power_of_two():
    with pytest.raises(PotentialError):
        make_stochastic_model(12, seed=0)


# ------------------------------------------- in-place LJ kernels, bitwise


def _plain(law):
    return PlainLJLaw(law.a6, law.a12, law.scale)


def _random_lj_law(rng, n_bonds, d):
    law = LennardJonesLaw(rng.uniform(0.5, 2.0, n_bonds), rng.uniform(0.5, 2.0, n_bonds), scale=2.0)
    return law, rng.uniform(-1.0, 1.0, (n_bonds, d))


def _assert_kernels_equal_the_plain_expressions(law, gaps, rvec):
    plain = _plain(law)
    for kernel in ("energy", "grad", "hess"):
        got, want = getattr(law, kernel)(gaps, rvec), getattr(plain, kernel)(gaps, rvec)
        assert bitwise_equal(got, want), kernel


@pytest.mark.parametrize("lead", [(), (3,), (3, 2)], ids=["field", "stack", "stack-of-stacks"])
def test_dynamics_chain_lj_kernels_equal_the_plain_expressions_bitwise(lead):
    from fractions import Fraction

    from hqclab.lattice import chain_lattice
    from hqclab.network import compile_system

    system = compile_system(chain_lattice(Fraction(1, 32), 2), make_dynamics_model().model)
    w = 0.02 * np.random.default_rng(21).standard_normal(lead + (system.n_sites, 1))
    F = np.broadcast_to(np.array([[0.03]]), lead + (1, 1)) if lead else None
    _assert_kernels_equal_the_plain_expressions(system.law, system.gaps(w, F), system.rvec)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("lead", [(), (3,), (3, 2)], ids=["field", "stack", "stack-of-stacks"])
def test_lj_kernels_equal_the_plain_expressions_bitwise(d, lead):
    # b^2 is summed one component at a time, as np.sum(., axis=-1) does below 8 terms
    rng = np.random.default_rng(22)
    law, rvec = _random_lj_law(rng, 40, d)
    _assert_kernels_equal_the_plain_expressions(law, 0.3 * rng.standard_normal(lead + (40, d)), rvec)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_lj_kernels_near_collapse_equal_the_plain_expressions_bitwise(d):
    # bond lengths from 1e-8 to 1e-1: q^7 spans ~ 1e5 to 1e112, and overflows nowhere
    rng = np.random.default_rng(23)
    law, rvec = _random_lj_law(rng, 64, d)
    direction = rng.standard_normal((2, 64, d))
    direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
    gaps = -rvec + 10.0 ** rng.uniform(-8.0, -1.0, (2, 64, 1)) * direction
    _assert_kernels_equal_the_plain_expressions(law, gaps, rvec)
    _assert_kernels_equal_the_plain_expressions(law, gaps[0], rvec)


@pytest.mark.parametrize("lead", [(), (2,)], ids=["field", "stack"])
def test_collapsed_bond_raises_through_the_inverse_square(lead):
    rng = np.random.default_rng(24)
    law, rvec = _random_lj_law(rng, 6, 2)
    gaps = np.zeros(lead + (6, 2))
    gaps[..., 4, :] = -rvec[4]
    for kernel in ("energy", "grad", "hess"):
        with pytest.raises(PotentialError, match="collapsed to zero"):
            getattr(law, kernel)(gaps, rvec)
    # a subclass's check in _inverse_square runs for every kernel
    hard = HardCoreLaw(law.a6, law.a12, law.scale, core=0.5)
    gaps[..., 4, :] = rvec[4] * (0.2 / (law.scale * np.linalg.norm(rvec[4])) - 1.0)   # b = 0.2
    assert np.all(np.isfinite(law.energy(gaps, rvec)))
    for kernel in ("energy", "grad", "hess"):
        with pytest.raises(PotentialError, match="hard core"):
            getattr(hard, kernel)(gaps, rvec)


def test_chain_models_of_one_species_count_share_their_geometry():
    # one shifts object and one set of resolved offsets per species count,
    # shared with the chain lattices and the unit cell of those shifts
    first, second = LinearSpring1D((1.0, 2.0)), LinearSpring1D((3.0, 0.5))
    assert first.shifts() is second.shifts() is chain_lattice(Fraction(1, 8), 2).shifts
    assert all(a.offset is b.offset for alpha in range(2)
               for a, b in zip(first.bond_specs(alpha), second.bond_specs(alpha)))
    assert make_dynamics_model().model.shifts() is first.shifts()
    assert first.bond_specs(0)[0].offset == unit_cell(1, first.shifts()).resolve_offset(0, Fraction(1, 2))
    assert LinearSpring1D((1.0, 2.0, 3.0)).shifts() is not first.shifts()


def test_model_stack_stacks_its_members_laws_once_while_they_return_the_same():
    # chain members return the same laws at any cells: the stack returns the
    # same specs on every call.  RandomBond2D members return new laws on
    # every call, so each cell set gets its own cells' laws, stacked anew.
    # The stack keeps one entry per species, however many calls it serves.
    springs = [LinearSpring1D((1.0, 2.0)), LinearSpring1D((3.0, 0.5))]
    lj = make_dynamics_model().model
    stacks = [ModelStack(springs[::-1] + springs), ModelStack([lj, lj, lj])]
    for stack in stacks:
        for alpha in range(stack.m):
            specs = stack.bond_specs(alpha)
            assert stack.bond_specs(alpha, np.array([[1], [3]])) is specs
            assert all(a is b for a, b in zip(stack.bond_specs(alpha), specs))
    rows = [1, 0, 0, 1]
    for alpha in range(2):   # one spring per species: entry t's psi is member rows[t]'s, (T, 1)
        spec, = stacks[0].bond_specs(alpha)
        assert bitwise_equal(spec.law.psi, np.array([[springs[k].psi[alpha]] for k in rows]))

    networks = [RandomBond2D(4, 1), RandomBond2D(4, 2)]
    stack = ModelStack(networks)
    cell_sets = (np.array([[0, 0], [1, 2]]), np.array([[3, 3], [2, 0], [0, 1]]))
    for cells in cell_sets + cell_sets:
        specs = stack.bond_specs(0, cells)
        assert stack.bond_specs(0, cells) is not specs
        for j, spec in enumerate(specs):
            assert spec.offset is networks[0].bond_specs(0)[j].offset
            by_hand = np.stack([model.bond_specs(0, cells)[j].law.psi for model in networks])
            assert bitwise_equal(spec.law.psi, by_hand)

    for k in range(1000):
        stack.bond_specs(0, cell_sets[k % 2])
        stacks[0].bond_specs(k % 2, cell_sets[k % 2][:, :1])
    assert len(stack._specs) == 1 and len(stacks[0]._specs) == 2

