"""Multilattice geometry and discrete calculus."""

import itertools

import numpy as np
import pytest
from fractions import Fraction

from hqclab.lattice import (
    LatticeError,
    LatticeField,
    Multilattice,
    average,
    cell_index,
    chain_lattice,
    discrete_derivative,
    discrete_norms,
    nearest_neighbor_offsets,
    neighbor_sites,
    project_zero_mean,
    species_shifts,
    square_lattice,
    translate,
    unit_cell,
)
from support import inner_product, is_zero_mean, zeros_field


def test_two_species_chain_sites():
    # eps = 1/4, shifts (0, 1/2): sites at all multiples of 1/8
    lat = Multilattice(1, Fraction(1, 4), [(0,), (Fraction(1, 2),)])
    assert lat.n_sites == 8
    pos = np.sort(lat.site_positions().ravel())
    assert np.allclose(pos, np.arange(8) / 8)


def test_simple_lattice_sites():
    lat = Multilattice(1, Fraction(1, 4), [(0,)])
    assert lat.n_sites == 4
    assert np.allclose(np.sort(lat.site_positions().ravel()), np.arange(4) / 4)


def test_square_lattice_sites():
    lat = Multilattice(2, Fraction(1, 2), [(0, 0)])
    assert lat.n_sites == 4
    pos = {tuple(p) for p in lat.site_positions()}
    assert pos == {(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)}


def test_invalid_constructions():
    with pytest.raises(LatticeError):
        Multilattice(1, 0.3, [(0,)])  # 1/eps not integral
    with pytest.raises(LatticeError):
        Multilattice(1, Fraction(1, 2), [(0,), (0,)])  # duplicate shifts
    with pytest.raises(LatticeError):
        Multilattice(1, Fraction(1, 2), [(0,), (Fraction(3, 2),)])  # outside [0,1)
    with pytest.raises(LatticeError):
        Multilattice(1, Fraction(1, 2), [(Fraction(1, 2),), (0,)])  # p_0 != 0


def test_offset_resolution_and_errors():
    lat = chain_lattice(Fraction(1, 4), 2)
    off = lat.resolve_offset(0, Fraction(1, 2))
    assert off.species_target == 1
    off = lat.resolve_offset(1, Fraction(1, 2))
    assert off.species_target == 0 and off.cell_shift == (1,)
    with pytest.raises(LatticeError):
        lat.resolve_offset(0, Fraction(1, 3))


def test_derivative_of_constant_field():
    lat = chain_lattice(Fraction(1, 8), 2)
    u = LatticeField(lat, np.full((lat.n_sites, 1), 0.7))
    du = discrete_derivative(u, Fraction(1, 2))
    assert np.allclose(du.values, 0.0)


def test_derivative_hand_value():
    # eps = 1/2, u = (0, 0.1) on sites (0, 1/2), r = 1: wrap gives (0.2, -0.2)
    lat = Multilattice(1, Fraction(1, 2), [(0,)])
    u = LatticeField(lat, np.array([[0.0], [0.1]]))
    du = discrete_derivative(u, 1)
    assert np.allclose(du.values.ravel(), [0.2, -0.2])


def test_derivative_of_affine_interior():
    lat = chain_lattice(Fraction(1, 16), 1)
    pos = lat.site_positions()
    u = LatticeField(lat, 0.3 * pos)
    du = discrete_derivative(u, 1)
    interior = pos.ravel() + lat.eps_float < 1.0
    assert np.allclose(du.values.ravel()[interior], 0.3)


def test_average_and_inner_product():
    lat = chain_lattice(Fraction(1, 4), 1)
    c = LatticeField(lat, np.full((4, 1), 2.5))
    assert np.allclose(average(c), [2.5])
    z = project_zero_mean(LatticeField(lat, np.random.default_rng(0).standard_normal((4, 1))))
    assert abs(inner_product(z, c)) < 1e-14
    ind = zeros_field(lat)
    ind.values[2, 0] = 1.0
    assert inner_product(ind, ind) == pytest.approx(0.25)


def test_project_zero_mean():
    lat = Multilattice(1, Fraction(1, 2), [(0,)])
    u = LatticeField(lat, np.array([[1.0], [3.0]]))
    v = project_zero_mean(u)
    assert np.allclose(v.values.ravel(), [-1.0, 1.0])
    assert np.allclose(project_zero_mean(v).values, v.values)
    assert is_zero_mean(v)


def test_discrete_norms():
    lat = Multilattice(1, Fraction(1, 2), [(0,)])
    zero = zeros_field(lat)
    assert discrete_norms(zero) == (0.0, 0.0)
    c = LatticeField(lat, np.full((2, 1), -1.5))
    l2, h1 = discrete_norms(c)
    assert l2 == pytest.approx(1.5) and h1 == pytest.approx(1.5)
    u = LatticeField(lat, np.array([[0.0], [1.0]]))
    l2, h1 = discrete_norms(u)
    assert l2 == pytest.approx(np.sqrt(0.5))
    assert h1 == pytest.approx(np.sqrt(0.5 + 4.0))


@pytest.mark.parametrize("lat", [chain_lattice(Fraction(1, 8), 3), square_lattice(4)], ids=["chain-m3", "square"])
def test_discrete_norms_with_resolved_neighbors_are_bitwise_the_derivative_sums(lat):
    u = LatticeField(lat, np.random.default_rng(4).standard_normal((lat.n_sites, lat.d)))
    l2sq = float(np.mean(np.sum(u.values**2, axis=1)))
    h1sq = l2sq
    for r in nearest_neighbor_offsets(lat):
        h1sq += float(np.mean(np.sum(discrete_derivative(u, r).values ** 2, axis=1)))
    want = (np.sqrt(l2sq), np.sqrt(h1sq))
    neighbors = [neighbor_sites(lat, r) for r in nearest_neighbor_offsets(lat)]
    assert discrete_norms(u) == want
    assert discrete_norms(u, neighbors) == want


@pytest.mark.parametrize("m", [1, 2, 3])
def test_summation_by_parts(m):
    # index shift over the periodic sum: <D_r u, v> = <u, D_{-r} v>; the
    # reversed offset is the adjoint of D_r (it approximates -r d/dx)
    rng = np.random.default_rng(m)
    lat = chain_lattice(Fraction(1, 8), m)
    u = LatticeField(lat, rng.standard_normal((lat.n_sites, 1)))
    v = LatticeField(lat, rng.standard_normal((lat.n_sites, 1)))
    r = Fraction(1, m)
    lhs = inner_product(discrete_derivative(u, r), v)
    rhs = inner_product(u, discrete_derivative(v, -r))
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_derivative_commutes_with_translation():
    rng = np.random.default_rng(3)
    lat = chain_lattice(Fraction(1, 8), 2)
    u = LatticeField(lat, rng.standard_normal((lat.n_sites, 1)))
    r = Fraction(1, 2)
    a = discrete_derivative(translate(u, [3]), r)
    b = translate(discrete_derivative(u, r), [3])
    assert np.allclose(a.values, b.values, atol=1e-14)


def test_full_and_partial_derivative_identity():
    # two-variable fields u(x, y) on M x P with separable random data; the full
    # derivative on the trace y = x/eps equals D_{x,r} T_{y,r} + (1/eps) D_{y,r}
    rng = np.random.default_rng(11)
    m = 2
    lat = chain_lattice(Fraction(1, 8), m)
    eps = lat.eps_float
    n = lat.n_sites
    gx = rng.standard_normal(n)  # g(x) on lattice sites
    py = rng.standard_normal(m)  # p(y) on the periodic cell (indexed by species)
    species = lat.site_species()
    u = gx[:, None] * py[None, :]  # u(x_i, y_j)

    r = Fraction(1, 2)
    # neighbor index table for the physical step x -> x + eps*r
    offsets = [lat.resolve_offset(a, r) for a in range(m)]
    yshift = np.array([off.species_target for off in offsets])
    cell_shift = np.array([off.cell_shift for off in offsets])
    nbr = lat.site_index(lat.site_cells() + cell_shift[species], yshift[species])

    trace = u[np.arange(n), species]
    full = (u[nbr, species[nbr]] - trace) / eps
    # D_{x,r} T_{y,r} u: step x, with y already shifted by r
    dx_ty = (u[nbr, yshift[species]] - u[np.arange(n), yshift[species]]) / eps
    # (1/eps) D_{y,r} u: undivided difference in y, scaled
    dy = (u[np.arange(n), yshift[species]] - trace) / eps
    assert np.allclose(full, dx_ty + dy, atol=1e-12)


@pytest.mark.parametrize("lat", [
    chain_lattice(Fraction(1, 5), 3),
    Multilattice(2, Fraction(1, 4), [(0, 0), (Fraction(1, 2), Fraction(1, 4))]),
], ids=["chain-m3", "2d-two-species"])
def test_site_index_matches_an_explicit_loop(lat):
    # site ids counted cell by cell in C order, species-minor; shifted cells
    # (negative, and several periods away) wrap back into the torus
    N, d, m = lat.cells_per_dim, lat.d, lat.m
    expected, k = {}, 0
    for cell in itertools.product(range(N), repeat=d):
        for alpha in range(m):
            expected[cell, alpha] = k
            k += 1
    assert np.array_equal(lat.site_index(lat.site_cells(), lat.site_species()), np.arange(lat.n_sites))
    for shift in [(-1,) * d, (2 * N + 1,) * d, (-3 * N - 2, N + 3)[:d]]:
        cells = lat.cell_multi + shift
        got = lat.site_index(cells[:, None, :], np.arange(m))
        assert got.shape == (lat.n_cells, m)
        for i, cell in enumerate(cells.tolist()):
            for alpha in range(m):
                assert got[i, alpha] == expected[tuple(c % N for c in cell), alpha]
                assert lat.site_index(cell, alpha) == got[i, alpha]


def test_cell_index_counts_a_rectangular_grid_in_c_order():
    # the grids of the FFT preconditioner need not be square; offsets of
    # either sign wrap exactly (integer arithmetic throughout)
    grid = (3, 5)
    expected = {cell: k for k, cell in enumerate(itertools.product(*map(range, grid)))}
    offsets = [(i, j) for i in range(-7, 8) for j in range(-11, 12)]
    for dtype in (np.int32, np.int64):
        got = cell_index(np.array(offsets, dtype=dtype).T, grid)
        assert got.dtype == dtype
        assert got.tolist() == [expected[i % 3, j % 5] for i, j in offsets]
    assert cell_index(([2], [4]), grid).tolist() == [14]


def test_translation_and_difference_gather_through_site_index():
    # T u(x) = u(x + eps*cells) and D_r u(x) on a two-species chain, site by site
    lat = chain_lattice(Fraction(1, 6), 2)
    u = LatticeField(lat, np.random.default_rng(4).standard_normal((lat.n_sites, 1)))
    shifted = translate(u, [-7])
    diff = discrete_derivative(u, Fraction(3, 2))
    for site, (cell, alpha) in enumerate(zip(lat.site_cells()[:, 0], lat.site_species())):
        assert shifted.values[site, 0] == u.values[lat.site_index((cell - 7,), alpha), 0]
        # x + 3 eps/2 is the other species, one cell on (two from species 1)
        nbr = lat.site_index((cell + 1 + alpha,), 1 - alpha)
        assert diff.values[site, 0] == (u.values[nbr, 0] - u.values[site, 0]) / lat.eps_float


def test_2d_norm_offsets():
    lat = square_lattice(4)
    rng = np.random.default_rng(5)
    u = LatticeField(lat, rng.standard_normal((lat.n_sites, 2)))
    l2, h1 = discrete_norms(u)
    assert h1 >= l2 > 0.0


def test_multilattice_takes_eps_and_shifts_as_exact_floats():
    lat = Multilattice(1, 0.25, [(0,), (0.5,)])
    assert lat.eps == Fraction(1, 4)
    assert lat.shifts == ((Fraction(0),), (Fraction(1, 2),))
    assert lat.n_sites == 8


def test_one_shift_set_is_one_shared_object():
    # lattices of one shift set, however given, hold one shifts object, equal
    # and hashed like the plain tuple of its vectors
    lat = chain_lattice(Fraction(1, 8), 2)
    plain = ((Fraction(0),), (Fraction(1, 2),))
    assert Multilattice(1, 0.25, [(0,), (0.5,)]).shifts is lat.shifts
    assert species_shifts(1, plain) is lat.shifts is unit_cell(1, lat.shifts).shifts
    assert lat.shifts == plain and hash(lat.shifts) == hash(plain)
    assert unit_cell(1, plain) is unit_cell(1, lat.shifts)
    assert species_shifts(2, [(0, 0)]) is square_lattice(4).shifts is not lat.shifts
    with pytest.raises(LatticeError):
        species_shifts(2, lat.shifts)   # 1-vectors are no 2-vectors


def test_a_lattice_keeps_one_subgrid_per_size():
    lat = square_lattice(8)
    assert lat.subgrid(8) is lat
    torus = lat.subgrid(4)
    assert lat.subgrid(4) is torus and square_lattice(8).subgrid(4) is not torus
    assert (torus.cells_per_dim, torus.eps, torus.shifts) == (4, Fraction(1, 4), lat.shifts)
