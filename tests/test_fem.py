"""Uniform periodic meshes, P1 fields, interpolation, and error norms."""

import itertools
import tracemalloc

import numpy as np
import pytest
from fractions import Fraction

from hqclab.fem import (
    MeshError,
    P1Field,
    all_element_gradients,
    assemble,
    build_mesh,
    check_alignment,
    lattice_error,
    load_from_lattice,
    nodal_forces,
    p1_interpolate_lattice,
    p1_zero_mean,
    sample_on_lattice,
    scatter_to_vertices,
    site_elements,
)
from hqclab.lattice import LatticeError, LatticeField, chain_lattice, square_lattice
from support import (
    affine_extension,
    assemble_oracle,
    element_gradient,
    exact_barycentric,
    grid_average,
    site_position,
)


def test_1d_mesh_counts():
    mesh = build_mesh(1, 4)
    assert mesh.n_elements == 4 and mesh.n_vertices == 4
    assert np.allclose(mesh.volumes.sum(), 1.0)


def test_2d_mesh_counts_and_areas():
    mesh = build_mesh(2, 2)
    assert mesh.n_elements == 8
    assert np.allclose(mesh.volumes, 1 / 8)
    assert np.allclose(mesh.volumes.sum(), 1.0)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 64])
def test_grad_basis_is_the_exact_basis_of_each_orientation(d, n):
    # one basis per orientation, equal to every element's basis gradients
    # from exact barycentric coordinates, non-dyadic n included
    mesh = build_mesh(d, n)
    n_orient = d
    assert mesh.grad_basis.shape == (n_orient, d + 1, d)
    last = mesh.n_elements - n_orient    # all elements, or those of the first and last cell
    elements = range(mesh.n_elements) if n <= 6 else [*range(n_orient), *range(last, last + n_orient)]
    for t in elements:
        x0 = [Fraction(int(c), n) for c in mesh.corners[t, 0]]
        exact = np.array([exact_barycentric(mesh, t, [x + (j == k) for k, x in enumerate(x0)])
                          for j in range(d)]).T - np.eye(d + 1)[:, :1]
        assert np.array_equal(mesh.grad_basis[t % n_orient], exact.astype(float))


def test_alignment_check():
    mesh = build_mesh(1, 4)
    check_alignment(mesh, chain_lattice(Fraction(1, 8), 2))
    with pytest.raises(MeshError):
        check_alignment(build_mesh(1, 3), chain_lattice(Fraction(1, 8), 2))


def test_a_mesh_of_another_dimension_is_refused():
    # every mesh-lattice pairing passes through check_alignment or site_elements
    for mesh, lat in ((build_mesh(2, 4), chain_lattice(Fraction(1, 16), 2)), (build_mesh(1, 4), square_lattice(16))):
        u = LatticeField(lat, np.zeros((lat.n_sites, lat.d)))
        message = f"a {mesh.d}D mesh on a {lat.d}D lattice"
        for call, arg in ((check_alignment, lat), (site_elements, lat), (load_from_lattice, u),
                          (p1_interpolate_lattice, u)):
            with pytest.raises(MeshError, match=message):
                call(mesh, arg)


def test_element_gradient_1d():
    mesh = build_mesh(1, 2)
    u = P1Field(mesh, np.array([[0.0], [0.1]]))
    assert element_gradient(u, 0)[0, 0] == pytest.approx(0.2)
    assert element_gradient(u, 1)[0, 0] == pytest.approx(-0.2)


def test_constant_field_zero_gradient():
    mesh = build_mesh(2, 2)
    u = P1Field(mesh, np.full((mesh.n_vertices, 2), 1.7))
    assert np.allclose(all_element_gradients(u), 0.0)


def test_hat_function_gradients_integrate_to_zero():
    mesh = build_mesh(2, 4)
    u = P1Field(mesh, np.zeros((mesh.n_vertices, 2)))
    u.values[5, 0] = 1.0
    grads = all_element_gradients(u)
    total = np.einsum("t,tij->ij", mesh.volumes, grads)
    assert np.allclose(total, 0.0, atol=1e-14)


def test_affine_extension_consistency():
    mesh = build_mesh(1, 4)
    rng = np.random.default_rng(2)
    u = P1Field(mesh, rng.standard_normal((4, 1)))
    ext = affine_extension(u, 1)
    # agrees with the nodal values on the element
    assert np.allclose(ext(np.array([[0.25]])), u.values[1])
    assert np.allclose(ext(np.array([[0.5]])), u.values[2])
    # midpoint value equals the nodal average in 1D
    mid = ext(np.array([[0.375]]))[0, 0]
    assert mid == pytest.approx(0.5 * (u.values[1, 0] + u.values[2, 0]))
    assert np.allclose(ext.F, element_gradient(u, 1))


def test_sample_on_lattice_reproduces_vertices_and_partition_of_unity():
    mesh = build_mesh(2, 4)
    lat = square_lattice(12)
    rng = np.random.default_rng(3)
    u = P1Field(mesh, rng.standard_normal((mesh.n_vertices, 2)))
    vertex_sites = lat.site_index(np.rint(mesh.vertices * 12).astype(int))
    assert np.array_equal(sample_on_lattice(u, lat).values[vertex_sites], u.values)
    ones = P1Field(mesh, np.ones((mesh.n_vertices, 2)))
    assert np.allclose(sample_on_lattice(ones, lat).values, 1.0, atol=1e-12)


def test_interpolation_round_trip():
    # sampling a P1 field on the lattice and measuring the error gives zero
    mesh = build_mesh(1, 4)
    lat = chain_lattice(Fraction(1, 16), 2)
    rng = np.random.default_rng(4)
    u = P1Field(mesh, rng.standard_normal((4, 1)))
    sampled = sample_on_lattice(u, lat)
    l2, h1 = lattice_error(sampled, u)
    assert l2 < 1e-12 and h1 < 1e-12
    back = p1_interpolate_lattice(mesh, sampled)
    assert np.allclose(back.values, u.values, atol=1e-12)


@pytest.mark.parametrize("d,n,lat", [
    (1, 4, chain_lattice(Fraction(1, 16), 3)),
    (2, 4, square_lattice(8)),
])
def test_interpolation_reads_the_vertex_sites(d, n, lat):
    # the gathered nodal values are those of species 0 at each vertex's cell,
    # with sites counted cell by cell in C order, species-minor
    mesh = build_mesh(d, n)
    rng = np.random.default_rng(6)
    u = LatticeField(lat, rng.standard_normal((lat.n_sites, d)))
    N = lat.cells_per_dim
    site = {}
    for cell in itertools.product(range(N), repeat=d):
        for alpha in range(lat.m):
            site[cell, alpha] = len(site)
    cells = np.rint(mesh.vertices / lat.eps_float).astype(int) % N
    expected = [u.values[site[tuple(c), 0]] for c in cells.tolist()]
    assert np.array_equal(p1_interpolate_lattice(mesh, u).values, expected)


def test_interpolation_rejects_vertices_off_the_lattice():
    lat = chain_lattice(Fraction(1, 4), 1)
    u = LatticeField(lat, np.zeros((lat.n_sites, 1)))
    with pytest.raises(MeshError):
        p1_interpolate_lattice(build_mesh(1, 3), u)


def test_lattice_error_constant_offset():
    lat = chain_lattice(Fraction(1, 8), 1)
    rng = np.random.default_rng(5)
    u = LatticeField(lat, rng.standard_normal((lat.n_sites, 1)))
    shifted = LatticeField(lat, u.values + 0.3)
    l2, h1 = lattice_error(u, shifted)
    assert l2 == pytest.approx(0.3) and h1 == pytest.approx(0.3)
    l2, h1 = lattice_error(u, u)
    assert l2 == 0.0 and h1 == 0.0


def test_lattice_error_refuses_a_field_on_another_lattice():
    lat, other = chain_lattice(Fraction(1, 8), 1), chain_lattice(Fraction(1, 8), 1)
    u = LatticeField(lat, np.ones((lat.n_sites, 1)))
    with pytest.raises(LatticeError, match="different lattices"):
        lattice_error(u, LatticeField(other, u.values))


def test_gradient_of_smooth_interpolant_first_order():
    # measured at element endpoints (midpoints superconverge)
    errs = []
    for n in (8, 16):
        mesh = build_mesh(1, n)
        vals = np.sin(2 * np.pi * mesh.vertices)
        u = P1Field(mesh, vals)
        grads = all_element_gradients(u)[:, 0, 0]
        left = mesh.corners[:, 0, 0] / mesh.n
        errs.append(np.max(np.abs(grads - 2 * np.pi * np.cos(2 * np.pi * left))))
    ratio = errs[0] / errs[1]
    assert 1.7 <= ratio <= 2.5  # one halving of h


def test_zero_mean_projection_idempotent():
    mesh = build_mesh(2, 2)
    rng = np.random.default_rng(6)
    u = P1Field(mesh, rng.standard_normal((mesh.n_vertices, 2)))
    v = p1_zero_mean(u)
    assert np.allclose(v.values.mean(axis=0), 0.0, atol=1e-14)
    assert np.allclose(p1_zero_mean(v).values, v.values)


def test_site_elements_2d_triangles():
    mesh = build_mesh(2, 2)
    lat = square_lattice(10)
    owners = site_elements(mesh, lat, lat.site_index([[3, 1], [1, 3]]))[0]
    # below the diagonal of cell (0,0): lower triangle (index 0); above it: upper (index 1)
    assert owners.tolist() == [0, 1]


def _cell_element(mesh, x):
    """The element of the grid cell holding x in [0, 1)^d (in 2D the lower
    triangle on the diagonal), with the exact weights of x in it."""
    n = mesh.n
    cell = [int(xi * n) for xi in x]
    t = cell[0] if mesh.d == 1 else 2 * (cell[0] * n + cell[1]) + int(x[0] * n - cell[0] < x[1] * n - cell[1])
    return t, exact_barycentric(mesh, t, x)


@pytest.mark.parametrize("lat,d,n", [
    (chain_lattice(Fraction(1, 96), 2), 1, 6),
    (chain_lattice(Fraction(1, 96), 2), 1, 12),
    (square_lattice(96), 2, 6),
])
def test_sample_and_load_match_exact_hats_on_non_dyadic_meshes(lat, d, n):
    # the P1 value and the hat weights at a site do not depend on which
    # element holding it is used, so the oracle takes the grid cell's own
    mesh = build_mesh(d, n)
    hats = np.zeros((lat.n_sites, mesh.n_vertices))    # hat k at site x, exact then rounded
    for site in range(lat.n_sites):
        t, lam = _cell_element(mesh, site_position(lat, site))
        hats[site, mesh.elements[t]] = [float(w) for w in lam]
    rng = np.random.default_rng(n)
    u = P1Field(mesh, rng.standard_normal((mesh.n_vertices, d)))
    f = rng.standard_normal((lat.n_sites, d))
    load = hats.T @ f / lat.n_sites
    assert np.max(np.abs(sample_on_lattice(u, lat).values - hats @ u.values)) <= 1e-13 * np.max(np.abs(u.values))
    assert np.max(np.abs(load_from_lattice(mesh, LatticeField(lat, f)) - load)) <= 1e-13 * np.max(np.abs(load))


def test_load_from_lattice_matches_quadrature():
    # nodal load of a smooth force approximates the continuum pairing
    lat = square_lattice(32)
    pos = lat.site_positions()
    fvals = np.stack([np.sin(2 * np.pi * pos[:, 0]), np.cos(2 * np.pi * pos[:, 1])], axis=1)
    fvals -= fvals.mean(axis=0)
    f = LatticeField(lat, fvals)
    mesh = build_mesh(2, 4)
    b = load_from_lattice(mesh, f)
    # dense quadrature oracle: evaluate hats on a much finer grid
    fine = square_lattice(128)
    fpos = fine.site_positions()
    ff = np.stack([np.sin(2 * np.pi * fpos[:, 0]), np.cos(2 * np.pi * fpos[:, 1])], axis=1)
    ff -= ff.mean(axis=0)
    b_fine = load_from_lattice(mesh, LatticeField(fine, ff))
    assert np.max(np.abs(b - b_fine)) < 5e-3 * np.max(np.abs(b_fine))


@pytest.mark.parametrize("d,n", [(1, 2), (1, 5), (2, 2), (2, 3)])
def test_assemble_matches_element_loop(d, n):
    mesh = build_mesh(d, n)
    rng = np.random.default_rng(7 + d + n)
    tangents = rng.standard_normal((mesh.n_elements, d, d, d, d))
    K = assemble(mesh, tangents)[0].toarray()
    oracle = assemble_oracle(mesh, tangents)
    assert np.max(np.abs(K - oracle)) <= 1e-14 * np.max(np.abs(oracle))


@pytest.mark.parametrize("d,n", [(1, 2), (1, 5), (2, 2), (2, 3), (2, 4)])
def test_p1_stencil_is_the_grid_average_of_the_stiffness(d, n):
    # the stencil summed per orientation and local vertex pair against the
    # element loop's matrix averaged block by block over the vertex grid,
    # including grids so small that an element's vertices wrap onto each other
    mesh = build_mesh(d, n)
    rng = np.random.default_rng(13 + d + n)
    tangents = rng.standard_normal((mesh.n_elements, d, d, d, d))
    K, S = assemble(mesh, tangents)
    ref = grid_average(assemble_oracle(mesh, tangents), (n,) * d)
    assert S.shape == ref.shape == (n,) * d + (d, d)
    assert np.max(np.abs(S - ref)) <= 1e-14 * np.max(np.abs(ref))


#: vertex offsets coupled by a P1 element, before they wrap mod n
P1_OFFSETS = {1: [(0,), (1,), (-1,)],
              2: [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]}


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
def test_shared_tangent_assembles_like_per_element_copies(d, n):
    # one tangent for all elements against the per-element path on its
    # copies; at n = 1 and 2 the offsets alias, and at n = 1 the stiffness
    # cancels to zero, so the scale is that of one element's block
    mesh = build_mesh(d, n)
    A = np.random.default_rng(17 + d + n).standard_normal((d, d, d, d))
    K, S = assemble(mesh, A)
    K_ref, S_ref = assemble(mesh, np.broadcast_to(A, (mesh.n_elements,) + A.shape))
    scale = np.abs(A).sum() * mesh.volumes[0] * np.abs(mesh.grad_basis).max() ** 2
    assert np.max(np.abs(K.toarray() - K_ref.toarray())) <= 1e-14 * scale
    assert S.shape == S_ref.shape and np.max(np.abs(S - S_ref)) <= 1e-14 * scale
    # every row stores d entries per distinct offset, indexed in int32
    width = d * len({tuple(np.mod(o, n)) for o in P1_OFFSETS[d]})
    assert np.array_equal(np.diff(K.indptr), np.full(mesh.n_vertices * d, width))
    assert K.indices.dtype == np.int32


def test_shared_tangent_assembly_stays_near_the_matrix_size():
    # no per-element block, index copy or COO matrix: the n = 64 assembly
    # allocates little beyond the CSR matrix it returns
    mesh = build_mesh(2, 64)
    A = np.einsum("ik,jl->ijkl", np.eye(2), [[2.0, 0.5], [0.5, 1.0]])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        K, _ = assemble(mesh, A)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * (K.data.nbytes + K.indices.nbytes + K.indptr.nbytes)


def test_vertex_scatter_matches_add_at_bitwise():
    # bincount adds in input order as np.add.at does, so the nodal sums, and
    # the CSVs built on them, do not move
    mesh = build_mesh(2, 16)
    rng = np.random.default_rng(19)
    nodes = rng.integers(0, mesh.n_vertices, 50_000)
    values = rng.standard_normal((len(nodes), 2)) * 10.0 ** rng.integers(-8, 8, (len(nodes), 1))
    ref = np.zeros((mesh.n_vertices, 2))
    np.add.at(ref, nodes, values)
    assert np.array_equal(scatter_to_vertices(mesh, nodes, values), ref)


@pytest.mark.parametrize("d,n", [(1, 5), (2, 3), (2, 8)])
def test_element_gradients_match_element_loop(d, n):
    mesh = build_mesh(d, n)
    u = P1Field(mesh, np.random.default_rng(13 + d).standard_normal((mesh.n_vertices, d)))
    oracle = np.array([element_gradient(u, t) for t in range(mesh.n_elements)])
    assert np.max(np.abs(all_element_gradients(u) - oracle)) <= 1e-14 * np.max(np.abs(oracle))


@pytest.mark.parametrize("d,n", [(1, 5), (2, 3)])
def test_nodal_forces_match_element_loop(d, n):
    mesh = build_mesh(d, n)
    rng = np.random.default_rng(11 + d)
    P = rng.standard_normal((mesh.n_elements, d, d))
    oracle = np.zeros((mesh.n_vertices, d))
    for t in range(mesh.n_elements):
        oracle[mesh.elements[t]] += mesh.volumes[t] * mesh.grad_basis[t % len(mesh.grad_basis)] @ P[t].T
    assert np.max(np.abs(nodal_forces(mesh, P) - oracle)) <= 1e-14 * np.max(np.abs(oracle))
