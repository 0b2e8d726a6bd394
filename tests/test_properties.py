"""Property tests on random models, strains and fields: the stacked bond kernel,
the pair-bond LJ chain against its directed-bond form, the three-way
HQC / homogenized FEM / MQC equivalence, the site-to-element map on
random lattices and meshes, the P1 assembly on random tangents, the
entries of model stacks against their models alone, and the entries of
stacked P1 fields against their fields alone."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from hqclab.fem import (P1Field, all_element_gradients, assemble, build_mesh, element_gradients, nodal_zero_mean,
                        p1_zero_mean, site_elements)
from hqclab.homog import solve_cell_problem
from hqclab.lattice import chain_lattice, square_lattice
from hqclab.mqc import equivalence_report, solve_shift_vectors
from hqclab.network import compile_system
from hqclab.potential import LennardJones1D, LennardJonesParams, LinearSpring1D, RandomBond2D
from support import (
    DirectedLJ1D,
    assemble_oracle,
    bitwise_equal,
    check_stack_entries,
    grid_average,
    reference_compile,
    shifts_from_corrector,
    single_report,
    site_element_oracle,
    site_position,
)

STEP = 1e-6


@st.composite
def lj_models(draw):
    """A random LJ chain: 1 to 3 species, cutoff 1, 1.5 or 2 lattice units."""
    m = draw(st.integers(1, 3))
    s = tuple(draw(st.lists(st.floats(0.5, 2.0), min_size=m, max_size=m)))
    ell = tuple(draw(st.lists(st.floats(0.97, 1.03), min_size=m, max_size=m)))
    cutoff = draw(st.sampled_from([1.0, 1.5, 2.0]))
    return LennardJones1D(LennardJonesParams(s=s, ell=ell, cutoff=cutoff))


@st.composite
def lj_systems(draw):
    """A random LJ chain cell problem on a 4-cell torus under a random strain."""
    model = draw(lj_models())
    system = compile_system(chain_lattice(Fraction(1, 4), model.m), model)
    F = np.array([[draw(st.floats(-0.04, 0.04))]])
    return system, F, 0.01


@st.composite
def spring_networks(draw):
    """A random 2D bond network, strained or not."""
    n = draw(st.sampled_from([2, 4]))
    system = compile_system(square_lattice(n), RandomBond2D(n, seed=draw(st.integers(0, 2**16))))
    F = np.array(draw(st.lists(st.floats(-0.2, 0.2), min_size=4, max_size=4))).reshape(2, 2)
    return system, draw(st.sampled_from([None, F])), 0.1


systems = st.one_of(lj_systems(), spring_networks())


def random_field(system, scale, seed):
    return scale * np.random.default_rng(seed).standard_normal((system.n_sites, system.d))


def unit(system, k):
    e = np.zeros(system.n_dof)
    e[k] = 1.0
    return e.reshape(system.n_sites, system.d)


@given(systems, st.integers(0, 2**16))
def test_gradient_is_central_difference_of_energy(case, seed):
    system, F, scale = case
    w = random_field(system, scale, seed)
    # Riesz representer with respect to the site average: n_sites * dE/dw
    fd = np.array([(system.energy(w + STEP * unit(system, k), F)
                    - system.energy(w - STEP * unit(system, k), F)) / (2 * STEP)
                   for k in range(system.n_dof)]).reshape(w.shape) * system.n_sites
    g = system.gradient(w, F)
    assert np.max(np.abs(fd - g)) <= 1e-6 * (1.0 + np.max(np.abs(g)))


@given(systems, st.integers(0, 2**16))
def test_hessian_is_central_difference_of_gradient(case, seed):
    system, F, scale = case
    w = random_field(system, scale, seed)
    fd = np.stack([((system.gradient(w + STEP * unit(system, k), F)
                     - system.gradient(w - STEP * unit(system, k), F)) / (2 * STEP)).ravel()
                   for k in range(system.n_dof)], axis=1)
    H = system.hessian(w, F).toarray()
    assert np.max(np.abs(fd - H)) <= 1e-6 * (1.0 + np.max(np.abs(H)))


@given(systems, st.integers(0, 2**16), st.floats(-10.0, 10.0))
def test_stacked_kernel_is_translation_invariant(case, seed, shift):
    system, F, scale = case
    W = np.stack([random_field(system, scale, seed), random_field(system, scale, seed + 1)])
    Fs = None if F is None else np.stack([F, -F])
    g = system.gradient(W, Fs)
    assert np.allclose(system.energy(W + shift, Fs), system.energy(W, Fs), rtol=1e-12, atol=1e-12)
    assert np.allclose(system.gradient(W + shift, Fs), g, rtol=0.0, atol=1e-9 * (1.0 + np.abs(g).max()))
    # the Riesz gradient of a translation-invariant energy has zero mean
    assert np.abs(g.sum(axis=1)).max() <= 1e-12 * (1.0 + np.abs(g).max()) * system.n_sites


@given(st.integers(2, 4).flatmap(lambda m: st.lists(st.floats(0.5, 5.0), min_size=m, max_size=m)),
       st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4))
def test_three_way_equivalence_on_random_spring_chains(psi, nodal):
    model = LinearSpring1D(psi)
    mesh = build_mesh(1, 4)
    uh = p1_zero_mean(P1Field(mesh, np.array(nodal)[:, None]))
    rep, = equivalence_report([model], chain_lattice(Fraction(1, 32), model.m), mesh, uh.values[None])
    assert rep.max_gap <= 1e-10 * (1.0 + abs(rep.e_hqc))
    grads = all_element_gradients(uh)
    shifts = solve_shift_vectors(model, grads)
    for t, F in enumerate(grads):
        q = shifts_from_corrector(solve_cell_problem(model, F))
        assert np.max(np.abs(shifts[t] - q)) <= 1e-11


@given(lj_models(), st.floats(-0.04, 0.04), st.integers(0, 2**16))
def test_pair_bonds_match_the_directed_bond_chain(model, strain, seed):
    # one bond per atom pair with both ends' terms, evaluated from 1/b^2,
    # against one term per directed bond with the owner's (s, l), evaluated
    # by powers of b: the same energy, gradient, stress and Hessian from half
    # the bonds
    lattice = chain_lattice(Fraction(1, 4), model.m)
    pair = compile_system(lattice, model)
    directed = reference_compile(lattice, DirectedLJ1D(model.params))
    assert 2 * len(pair.src) == len(directed.src)
    w = random_field(pair, 0.01, seed)
    F = np.array([[strain]])
    assert abs(pair.energy(w, F) - directed.energy(w, F)) <= 1e-13 * abs(directed.energy(w, F))
    for fn in ("gradient", "stress"):
        ref = getattr(directed, fn)(w, F)
        assert np.max(np.abs(getattr(pair, fn)(w, F) - ref)) <= 1e-13 * np.max(np.abs(ref)), fn
    ref = directed.hessian(w, F).toarray()
    assert np.max(np.abs(pair.hessian(w, F).toarray() - ref)) <= 1e-13 * np.max(np.abs(ref))


#: element gradients of the compressed element: the range where the bond
#: forces of the micro problems reach 1e5 and a converged residual lies within
#: the rounding of their per-site sums
COMPRESSION = (-0.56, -0.41)


@settings(max_examples=40, deadline=None)
@given(lj_models(), st.floats(0.0, 1.0), st.floats(-0.1, 0.05), st.integers(0, 15))
def test_three_way_equivalence_on_random_lj_chains(model, depth, second, shift):
    # on a 16-element mesh one element is compressed, a second is strained
    # at random, and the other 14 take the mild tension that closes the
    # period.  The compressed element goes into COMPRESSION for any number of
    # species: a three-species cell is not inversion symmetric, so its bond
    # forces do not cancel and its residual floor is their rounding, which
    # passes MICRO_TOL from about F = -0.12 on, but the rounding band of
    # the Newton stop covers it
    lo, hi = COMPRESSION
    first = lo + depth * (hi - lo)
    grads = np.roll([first, second] + [-(first + second) / 14] * 14, shift)
    mesh = build_mesh(1, 16)
    uh = p1_zero_mean(P1Field(mesh, np.concatenate([[0.0], np.cumsum(grads[:-1]) / 16])[:, None]))
    F = all_element_gradients(uh)
    assert np.max(np.abs(F[:, 0, 0] - grads)) <= 1e-14
    rep, = equivalence_report([model], chain_lattice(Fraction(1, 32), model.m), mesh, uh.values[None])
    assert rep.max_gap <= 1e-9 * (1.0 + abs(rep.e_hqc))
    shifts = solve_shift_vectors(model, F)
    for t in range(len(F)):
        q = shifts_from_corrector(solve_cell_problem(model, F[t]))
        assert np.all(np.abs(shifts[t] - q) <= 1e-11)


@st.composite
def meshed_lattices(draw):
    """A mesh of n elements per direction (n = 1 included) on a 1D chain of
    m <= 4 species or a square lattice, mostly of N = n k cells and
    otherwise of N = n k + 1, and the lattice's sites: all of them where
    the pair is small, a few otherwise."""
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 8 if d == 1 else 4))
    N = n * draw(st.integers(1, 6 if d == 1 else 3)) + draw(st.sampled_from([0, 0, 0, 1]))
    lat = chain_lattice(Fraction(1, N), draw(st.integers(1, 4))) if d == 1 else square_lattice(N)
    mesh = build_mesh(d, n)
    if lat.n_sites * mesh.n_elements <= 400:
        return mesh, lat, list(range(lat.n_sites))
    return mesh, lat, draw(st.lists(st.integers(0, lat.n_sites - 1), min_size=1, max_size=4))


@settings(max_examples=100)
@given(meshed_lattices())
def test_site_elements_follow_the_exact_owner_rule(case):
    mesh, lat, sites = case
    d = mesh.d
    owners, lam, offsets = site_elements(mesh, lat)
    # on every site: nonnegative weights that reproduce the owner's offset,
    # which leads from its first corner to the site, up to whole periods
    assert np.all(lam >= 0)
    x0 = mesh.corners[owners, 0] / mesh.n
    assert np.allclose(np.einsum("pl,pld->pd", lam, mesh.corners[owners] / mesh.n), x0 + offsets,
                       rtol=0, atol=1e-15)
    periods = x0 + offsets - lat.site_positions()
    assert np.allclose(periods, np.rint(periods), rtol=0, atol=1e-15)
    # on the drawn sites, through both the full and the site-list call: the
    # owner of the exact rule, and its exact weights and offset, rounded
    picked = site_elements(mesh, lat, sites)
    for k, site in enumerate(sites):
        t, exact_lam, exact_offset = site_element_oracle(mesh, lat, site)
        assert owners[site] == picked[0][k] == t
        assert lam[site].tolist() == picked[1][k].tolist() == [float(x) for x in exact_lam]
        assert offsets[site].tolist() == picked[2][k].tolist() == [float(x) for x in exact_offset]
        # the exact weights place the site exactly
        corners = [[Fraction(int(v), mesh.n) for v in c] for c in mesh.corners[t]]
        placed = [sum(w * c[j] for w, c in zip(exact_lam, corners)) for j in range(d)]
        assert placed == [corners[0][j] + exact_offset[j] for j in range(d)]
        assert [p % 1 for p in placed] == list(site_position(lat, site))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2]), st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_assembly_matches_the_element_loop(d, n, seed):
    # per-element tangents on any grid, aliasing (n <= 2) and non-dyadic n
    # included: K against the element-by-element oracle, S against its grid
    # average, both on the scale of one element's block (K cancels at n = 1)
    mesh = build_mesh(d, n)
    tangents = np.random.default_rng(seed).standard_normal((mesh.n_elements, d, d, d, d))
    K, S = assemble(mesh, tangents)
    oracle = assemble_oracle(mesh, tangents)
    block = np.abs(tangents).sum(axis=(1, 2, 3, 4)).max()
    scale = block * mesh.volumes[0] * np.abs(mesh.grad_basis).max() ** 2
    assert np.max(np.abs(K.toarray() - oracle)) <= 1e-14 * scale
    assert np.max(np.abs(S - grid_average(oracle, (n,) * d))) <= 1e-14 * scale


# ---------------------------------------------------------------- entry stacks


@st.composite
def spring_stacks(draw):
    """1 to 4 spring chains of one species count m = 1..4, each with its
    gradient and cell field."""
    m, T = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    models = [LinearSpring1D(draw(st.lists(st.floats(0.5, 5.0), min_size=m, max_size=m))) for _ in range(T)]
    return models, draw(st.lists(st.floats(-0.5, 0.5), min_size=T, max_size=T)), 0.1


@st.composite
def lj_stacks(draw):
    """1 to 4 LJ chains of one bond layout (species count and cutoff), with
    their gradients and cell fields; a model may repeat."""
    m, cutoff, T = draw(st.integers(1, 3)), draw(st.sampled_from([1.0, 1.5, 2.0])), draw(st.integers(1, 4))
    params = [LennardJonesParams(s=tuple(draw(st.lists(st.floats(0.5, 2.0), min_size=m, max_size=m))),
                                 ell=tuple(draw(st.lists(st.floats(0.97, 1.03), min_size=m, max_size=m))),
                                 cutoff=cutoff) for _ in range(draw(st.integers(1, T)))]
    distinct = [LennardJones1D(p) for p in params]
    models = [distinct[draw(st.integers(0, len(distinct) - 1))] for _ in range(T)]
    return models, draw(st.lists(st.floats(-0.04, 0.04), min_size=T, max_size=T)), 0.01


@settings(max_examples=30, deadline=None)
@given(st.one_of(spring_stacks(), lj_stacks()), st.integers(0, 2**16))
def test_every_stack_entry_is_its_model_alone(case, seed):
    models, strains, scale = case
    rng = np.random.default_rng(seed)
    m, T = models[0].m, len(models)
    F = np.array(strains)[:, None, None]
    w = scale * rng.standard_normal((T, m, 1))
    check_stack_entries(models, F, w - w.mean(axis=1, keepdims=True), scale * rng.standard_normal((T, m - 1, 1)))


@settings(max_examples=20, deadline=None)
@given(st.one_of(spring_stacks(), lj_stacks()), st.integers(0, 2**16))
def test_every_trial_of_a_stacked_report_is_its_report_alone(case, seed):
    models, _, scale = case
    rng, mesh = np.random.default_rng(seed), build_mesh(1, 4)
    lattice = chain_lattice(Fraction(1, 32), models[0].m)
    # nodal values of a quarter of the scale: element gradients of about the scale
    fields = [p1_zero_mean(P1Field(mesh, scale / 4 * rng.standard_normal((4, 1)))) for _ in models]
    reports = equivalence_report(models, lattice, mesh, np.stack([uh.values for uh in fields]))
    assert len(reports) == len(models)
    for model, uh, rep in zip(models, fields, reports):
        ref = single_report(model, lattice, mesh, uh)
        assert all(bitwise_equal(getattr(rep, e), getattr(ref, e)) for e in ("e_hqc", "e_fem", "e_mqc"))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(1, 2), (1, 4), (1, 9), (1, 17), (2, 1), (2, 3), (2, 8)]), st.sampled_from([1, 2, 7]),
       st.sampled_from(["C", "transposed", "F"]), st.floats(1e-3, 1e3), st.integers(0, 2**16))
def test_every_entry_of_a_field_stack_is_its_field_alone(mesh_size, T, layout, scale, seed):
    # a stack of T fields through the stacked P1 gradient and zero-mean:
    # entry k is, bit for bit, what the single-field functions give field k
    # alone, also for a stack that is a non-contiguous view (a transposed
    # stack, or one in Fortran order)
    d, n = mesh_size
    mesh = build_mesh(d, n)
    values = scale * np.random.default_rng(seed).standard_normal((T, mesh.n_vertices, d))
    if layout == "transposed":
        values = values.transpose(1, 0, 2).copy().transpose(1, 0, 2)
    elif layout == "F":
        values = np.asfortranarray(values)
    grads, zero_mean = element_gradients(mesh, values), nodal_zero_mean(values)
    assert grads.shape == (T, mesh.n_elements, d, d) and zero_mean.shape == values.shape
    for k in range(T):
        uh = P1Field(mesh, values[k].copy())
        assert bitwise_equal(grads[k], all_element_gradients(uh))
        assert bitwise_equal(zero_mean[k], p1_zero_mean(uh).values)

