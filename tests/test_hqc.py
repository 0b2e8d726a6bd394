"""HQC core: sampling domains, microproblems, assemblies, solve, reconstruction."""

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from hqclab.atomistic import EquilibriumProblem, solve_equilibrium, total_energy
from hqclab.fem import (
    MeshError,
    P1Field,
    all_element_gradients,
    assemble,
    build_mesh,
    load_from_lattice,
    nodal_forces,
    p1_zero_mean,
    sample_on_lattice,
    site_elements,
)
from hqclab.homog import HomogenizedDensity, harmonic_mean
from hqclab.hqc import (
    HQCError,
    HQCOperator,
    macro_newton,
    place_sampling_domains,
    reconstruct,
    solve_hqc,
)
from hqclab.lattice import LatticeField, Multilattice, chain_lattice, square_lattice, unit_cell
from hqclab.network import avg_norm
from hqclab.potential import (
    BondLaw,
    BondSpec,
    LennardJones1D,
    LennardJonesParams,
    LinearSpring1D,
    RandomBond2D,
    SpringLaw,
    make_dynamics_model,
)
from support import constant_tensor_stiffness, site_element_oracle, vector_tensors


def random_uh(mesh, scale, seed):
    rng = np.random.default_rng(seed)
    return p1_zero_mean(P1Field(mesh, scale * rng.standard_normal((mesh.n_vertices, mesh.d))))


def gradient_full(op, uh):
    """Nodal residual through the sensitivity fields (the unsimplified form):
    oracle for the stress form of HQCOperator.gradient."""
    from hqclab.hqc import micro_sensitivity

    grads = all_element_gradients(uh)
    correctors = op.at(grads).chi
    mesh = op.mesh
    d = mesh.d
    system = op.system
    out = np.zeros((mesh.n_vertices, d))
    for t in range(mesh.n_elements):
        chi = correctors[t]
        sens = micro_sensitivity(system, chi, grads[t])
        forces = system.bond_forces(chi, grads[t])  # (nb, d)
        gb = mesh.grad_basis[t % len(mesh.grad_basis)]
        nodes = mesh.elements[t]
        for l in range(d + 1):
            for i in range(d):
                G = np.zeros((d, d))
                G[i, :] = gb[l]
                S = np.einsum("j,jnx->nx", gb[l], sens[i])
                g = system.rvec @ G.T + (S[system.dst] - S[system.src])
                val = float(np.sum(forces * g)) / system.n_sites
                out[nodes[l], i] += mesh.volumes[t] * val
    return out


def test_sampling_placement_barycenter_snap():
    # T = [0, 1/4), eps = 1/16: representative site at 1/8 (cell index 2)
    mesh = build_mesh(1, 4)
    lat = chain_lattice(Fraction(1, 16), 2)
    domains = place_sampling_domains(mesh, lat)
    assert domains[0].parent_cells.tolist() == [2]
    # uniform mesh, uniform lattice: domains are translates, one period each
    assert all(d.torus is domains[0].torus for d in domains)
    assert [d.parent_sites.tolist() for d in domains] == [[2 * r, 2 * r + 1] for r in (2, 6, 10, 14)]
    assert [d.parent_cells.tolist() for d in domains] == [[2], [6], [10], [14]]


def nearest_cell_oracle(mesh, t, eps, n_cells, ties):
    """Nearest Bravais cell of element t's barycenter in exact Fraction
    arithmetic; exact half-distance ties go to the smaller coordinate and are
    counted in ``ties``."""
    idx = mesh.corners[t]
    out = []
    for j in range(mesh.d):
        bary = Fraction(int(idx[:, j].sum()), mesh.n * (mesh.d + 1))
        ratio = bary / eps + Fraction(1, 2)
        k = ratio.numerator // ratio.denominator
        if ratio == k:
            k -= 1
            ties.append((t, j))
        out.append(int(k) % n_cells)
    return tuple(out)


@pytest.mark.parametrize("d,n,eps,n_cells,has_ties", [
    (1, 4, Fraction(1, 4), 4, True),
    (1, 4, Fraction(1, 16), 16, False),
    (1, 2, Fraction(3, 10), 7, True),
    (1, 8, Fraction(3, 64), 7, False),
    (2, 2, Fraction(1, 3), 3, True),
    (2, 4, Fraction(1, 8), 8, False),
    (2, 3, Fraction(2, 9), 11, True),
    (2, 4, Fraction(3, 40), 5, False),
])
def test_nearest_cells_match_fraction_oracle(d, n, eps, n_cells, has_ties):
    from hqclab.hqc import nearest_bravais_cells

    mesh = build_mesh(d, n)
    ties = []
    oracle = [nearest_cell_oracle(mesh, t, eps, n_cells, ties) for t in range(mesh.n_elements)]
    cells = nearest_bravais_cells(mesh, eps, n_cells)
    assert cells.dtype == np.int64
    assert [tuple(c) for c in cells.tolist()] == oracle
    assert bool(ties) == has_ties


def test_sampling_placement_uses_the_oracle_and_shares_subgrid_indices():
    lat = chain_lattice(Fraction(1, 12), 1)
    mesh = build_mesh(1, 4)  # h = 3 eps: every barycenter sits on a tie
    ties = []
    domains = place_sampling_domains(mesh, lat)
    assert [dom.parent_cells.tolist() for dom in domains] == [
        list(nearest_cell_oracle(mesh, t, lat.eps, 12, ties)) for t in range(mesh.n_elements)]
    assert ties
    for n_rep in (12, 4):
        domains = place_sampling_domains(mesh, lat, n_rep)
        # one shared domain, whatever the element
        assert len(domains) == mesh.n_elements
        assert all(dom is domains[0] for dom in domains)
        assert domains[0].parent_sites is domains[0].parent_cells
        assert domains[0].torus.cells_per_dim == n_rep
    # full sampling: the whole lattice in site order
    assert np.array_equal(place_sampling_domains(mesh, lat, 12)[0].parent_cells, np.arange(12))
    # crystal domains: one period at the nearest cell
    lat3 = chain_lattice(Fraction(1, 16), 3)
    crystal = place_sampling_domains(mesh, lat3)
    for t, dom in enumerate(crystal):
        (cell,) = nearest_cell_oracle(mesh, t, lat3.eps, 16, [])
        assert dom.parent_cells.tolist() == [cell]
        assert dom.parent_sites.tolist() == [3 * cell + a for a in range(3)]


PLACEMENT_CASES = [
    pytest.param(1, lambda: chain_lattice(Fraction(1, 16), 3), 4, None, id="period-1d"),
    pytest.param(2, lambda: square_lattice(8), 2, None, id="period-2d"),
    pytest.param(2, lambda: square_lattice(8), 2, 4, id="subgrid"),
    pytest.param(2, lambda: square_lattice(8), 4, 8, id="full-sampling"),
]


@pytest.mark.parametrize("d, make_lattice, n, n_rep", PLACEMENT_CASES)
def test_a_memoized_placement_is_bitwise_a_fresh_one(d, make_lattice, n, n_rep):
    from hqclab import hqc

    mesh, lat = build_mesh(d, n), make_lattice()
    first = place_sampling_domains(mesh, lat, n_rep)
    again = place_sampling_domains(mesh, lat, n_rep)
    assert again is not first and all(a is b for a, b in zip(again, first))
    # against a computation on the same pair and one on a new equal pair
    fresh_lat = make_lattice()
    for fresh in (hqc._placement(mesh, lat, n_rep), place_sampling_domains(build_mesh(d, n), fresh_lat, n_rep)):
        assert len(fresh) == len(again) == mesh.n_elements
        for mine, theirs in zip(again, fresh):
            assert (mine.torus.cells_per_dim, mine.torus.shifts) == (theirs.torus.cells_per_dim, theirs.torus.shifts)
            for key in ("parent_cells", "parent_sites"):
                a, b = getattr(mine, key), getattr(theirs, key)
                assert a.dtype == b.dtype and np.array_equal(a, b)
    assert again[0].torus is (unit_cell(d, lat.shifts) if n_rep is None else lat.subgrid(n_rep))


def test_a_placement_goes_with_its_mesh():
    import gc
    import weakref

    from hqclab import hqc

    lat = square_lattice(8)
    mesh = build_mesh(2, 4)
    place_sampling_domains(mesh, lat, 8)    # full sampling: the domains hold the lattice
    assert list(hqc._PLACEMENTS[mesh][lat]) == [8]
    gc.collect()    # only this mesh may leave the memo below
    entries, meshes, lattices = len(hqc._PLACEMENTS), weakref.ref(mesh), weakref.ref(lat)
    del mesh, lat
    gc.collect()
    assert meshes() is None and lattices() is None and len(hqc._PLACEMENTS) == entries - 1


def test_equivalence_trials_resolve_no_geometry_of_their_own(monkeypatch):
    # offsets are resolved once per species count and a placement once per
    # (mesh, lattice): 6 and 12 spring trials do the same geometry, one
    # placement for each of the four chain lattices of a run
    from hqclab import experiments, hqc, lattice

    counts = {"offsets": 0, "placements": 0}
    init, nearest = lattice.NeighborOffset.__init__, hqc.nearest_bravais_cells

    def counting_init(self, *args, **kwargs):
        counts["offsets"] += 1
        init(self, *args, **kwargs)

    def counting_nearest(*args):
        counts["placements"] += 1
        return nearest(*args)

    cfg = {"seed": "3", "trials_lj": "2", "trials_simple": "2"}
    experiments.run_equivalence(dict(cfg, trials_spring="6"))
    monkeypatch.setattr(lattice.NeighborOffset, "__init__", counting_init)
    monkeypatch.setattr(hqc, "nearest_bravais_cells", counting_nearest)
    seen = []
    for trials in ("6", "12"):
        res = experiments.run_equivalence(dict(cfg, trials_spring=trials))
        assert res.summary["all_within_tolerance"]
        seen.append(dict(counts))
        counts.update(offsets=0, placements=0)
    assert seen[0] == seen[1] == {"offsets": 0, "placements": 4}


def test_period_tori_and_the_cell_system_share_one_unit_cell():
    # every crystal domain and homogenization's cell system stand on the one
    # shared lattice period of the model's shifts
    model = make_dynamics_model().model
    domains = place_sampling_domains(build_mesh(1, 4), chain_lattice(Fraction(1, 16), 2))
    cell = unit_cell(1, model.shifts())
    assert (cell.n_cells, cell.shifts) == (1, chain_lattice(Fraction(1, 16), 2).shifts)
    assert all(dom.torus is cell for dom in domains)
    assert unit_cell(1, [(0.0,), (0.5,)]) is cell


def test_sampling_requires_h_at_least_eps():
    mesh = build_mesh(1, 8)
    lat = chain_lattice(Fraction(1, 4), 2)
    with pytest.raises(Exception):
        place_sampling_domains(mesh, lat)


def test_micro_matches_cell_problem():
    # element correctors coincide with the unit-cell solution (crystal case)
    from hqclab.homog import solve_cell_problem

    for model, scale in ((LinearSpring1D((1.0, 3.0)), 1.0), (make_dynamics_model().model, 0.04)):
        lat = chain_lattice(Fraction(1, 32), model.m)
        mesh = build_mesh(1, 4)
        uh = random_uh(mesh, scale, seed=1)
        op = HQCOperator(model, lat, mesh)
        grads = all_element_gradients(uh)
        chis = op.at(grads).chi
        for F, chi, residual in zip(grads, chis, avg_norm(op.system.gradient(chis, grads))):
            chi_cell = solve_cell_problem(model, F)
            assert np.max(np.abs(chi - chi_cell)) < 1e-12 * (1 + np.linalg.norm(F))
            assert np.abs(chi.mean(axis=0)).max() < 1e-12
            assert residual <= 1e-12 * (1 + np.linalg.norm(F))


def test_micro_simple_lattice_trivial():
    model = LinearSpring1D((2.0,))
    lat = chain_lattice(Fraction(1, 16), 1)
    mesh = build_mesh(1, 4)
    op = HQCOperator(model, lat, mesh)
    chi = op.at(all_element_gradients(random_uh(mesh, 0.5, seed=2))).chi
    assert np.allclose(chi, 0.0)


def test_micro_sensitivity_directional_difference():
    # (chi(F + tG) - chi(F)) / t against the assembled sensitivity, LJ model
    from hqclab.hqc import micro_sensitivity
    from hqclab.network import newton_zero_mean

    model = make_dynamics_model().model
    lat = chain_lattice(Fraction(1, 16), 2)
    mesh = build_mesh(1, 2)
    op = HQCOperator(model, lat, mesh)
    system = op.system
    F = np.array([[0.02]])
    chi = newton_zero_mean(system, F=F, tol=1e-14, ref=1.0).w
    sens = micro_sensitivity(system, chi, F)
    t = 1e-6
    G = np.array([[1.0]])
    chi_p = newton_zero_mean(system, F=F + t * G, w0=chi, tol=1e-14, ref=1.0).w
    fd = (chi_p - chi) / t
    assembled = np.einsum("ij,ijnx->nx", G, sens)
    assert np.max(np.abs(fd - assembled)) < 1e-5 * (1 + np.max(np.abs(assembled)))


def test_stacked_directions_match_direction_loops():
    # the stacked affine forces and the broadcast tangent gaps against the
    # per-direction loops they replace, on a 2D system (d^2 = 4 directions)
    from hqclab.hqc import condensed_tangent, micro_sensitivity

    op = HQCOperator(RandomBond2D(8, seed=3), square_lattice(8), build_mesh(2, 2), n_rep=4)
    system = op.system
    d = system.d
    rng = np.random.default_rng(5)
    F = 0.1 * rng.standard_normal((d, d))
    chi = 0.01 * rng.standard_normal((system.n_sites, d))
    k = system.bond_stiffness(chi, F)
    units = np.eye(d * d).reshape(d, d, d, d)
    forces = system.affine_force(chi, F, units)
    sens = micro_sensitivity(system, chi, F)
    gaps = np.zeros((d, d, len(system.src), d))
    for i in range(d):
        for j in range(d):
            per_bond = np.einsum("bij,bj->bi", k, system.rvec @ units[i, j].T)
            assert np.array_equal(forces[i, j], system._scatter(per_bond))
            w = sens[i, j]
            gaps[i, j] = system.rvec @ units[i, j].T + (w[system.dst] - w[system.src])
    expected = np.einsum("ijbx,bxy,klby->ijkl", gaps, k, gaps) / system.n_sites
    assert np.array_equal(condensed_tangent(system, chi, F, sens), expected)


def test_quadratic_sensitivity_equals_micro_solve():
    # linear reconstruction: the sensitivity of a basis function equals the
    # micro solve driven by that basis function's affine data
    from hqclab.network import newton_zero_mean

    model = LinearSpring1D((1.0, 4.0))
    lat = chain_lattice(Fraction(1, 8), 2)
    mesh = build_mesh(1, 2)
    op = HQCOperator(model, lat, mesh)
    system = op.system
    sens, _ = op._quad_data()
    direct = newton_zero_mean(system, F=np.array([[1.0]]), tol=1e-14, ref=1.0).w
    assert np.max(np.abs(sens - direct)) < 1e-12


def test_hqc_energy_zero_field():
    model = LinearSpring1D((1.0, 3.0))
    lat = chain_lattice(Fraction(1, 16), 2)
    mesh = build_mesh(1, 4)
    assert HQCOperator(model, lat, mesh).energy(P1Field(mesh, np.zeros((4, 1)))) == 0.0


def test_hqc_energy_equals_homogenized_density():
    model = LinearSpring1D((1.0, 3.0, 0.7))
    lat = chain_lattice(Fraction(1, 32), 3)
    mesh = build_mesh(1, 4)
    uh = random_uh(mesh, 0.4, seed=3)
    density = HomogenizedDensity(model)
    from hqclab.fem import all_element_gradients

    grads = all_element_gradients(uh)
    expected = sum(mesh.volumes[t] * density.phi0(grads[t]) for t in range(mesh.n_elements))
    assert HQCOperator(model, lat, mesh).energy(uh) == pytest.approx(expected, abs=1e-12)


def test_single_element_full_domain_sampling():
    # eps = h with one element: the HQC energy at u^h = 0 equals the relaxed
    # atomistic energy of one period under zero mean displacement
    model = make_dynamics_model().model
    lat = chain_lattice(1, 2)  # one Bravais cell: M is a single period
    mesh = build_mesh(1, 1)
    uh = P1Field(mesh, np.zeros((1, 1)))
    e_hqc = HQCOperator(model, lat, mesh).energy(uh)
    prob = EquilibriumProblem(lat, model)
    u_eq = solve_equilibrium(prob, tol=1e-12)
    assert e_hqc == pytest.approx(total_energy(prob, u_eq), abs=1e-12)


def test_gradient_matches_finite_differences():
    model = make_dynamics_model().model
    lat = chain_lattice(Fraction(1, 16), 2)
    mesh = build_mesh(1, 4)
    uh = random_uh(mesh, 0.02, seed=4)
    op = HQCOperator(model, lat, mesh)
    g = op.gradient(uh)
    step = 1e-6
    for k in range(mesh.n_vertices):
        up = P1Field(mesh, uh.values.copy())
        um = P1Field(mesh, uh.values.copy())
        up.values[k, 0] += step
        um.values[k, 0] -= step
        fd = (op.energy(up) - op.energy(um)) / (2 * step)
        assert fd == pytest.approx(g[k, 0], rel=1e-6, abs=1e-9)


def test_gradient_simplification_matches_full_form():
    # the stress form (no sensitivities) equals the sensitivity-based gradient
    model = make_dynamics_model().model
    lat = chain_lattice(Fraction(1, 16), 2)
    mesh = build_mesh(1, 4)
    uh = random_uh(mesh, 0.03, seed=5)
    op = HQCOperator(model, lat, mesh)
    simplified = op.gradient(uh)
    full = gradient_full(op, uh)
    assert np.max(np.abs(simplified - full)) < 1e-10 * (1 + np.max(np.abs(full)))


def test_hessian_symmetry_and_fd():
    model = make_dynamics_model().model
    lat = chain_lattice(Fraction(1, 16), 2)
    mesh = build_mesh(1, 4)
    uh = random_uh(mesh, 0.02, seed=6)
    op = HQCOperator(model, lat, mesh)
    H = np.asarray(op.hessian(uh).todense())
    assert np.max(np.abs(H - H.T)) <= 1e-12 * max(np.max(np.abs(H)), 1.0)
    # constant field in the kernel
    assert np.max(np.abs(H @ np.ones(mesh.n_vertices))) < 1e-10 * np.max(np.abs(H))
    step = 1e-6
    for k in range(mesh.n_vertices):
        up = P1Field(mesh, uh.values.copy())
        um = P1Field(mesh, uh.values.copy())
        up.values[k, 0] += step
        um.values[k, 0] -= step
        fd = (op.gradient(up) - op.gradient(um)).ravel() / (2 * step)
        assert np.allclose(H[:, k], fd, atol=1e-5 * max(np.max(np.abs(H)), 1.0))


def test_hessian_equals_effective_fem_matrix():
    # 1D linear model: the HQC stiffness is the P1 matrix of the density
    # (1/2) psi0 (grad u * r)^2
    psi = (1.0, 3.0)
    m = 2
    model = LinearSpring1D(psi)
    lat = chain_lattice(Fraction(1, 32), m)
    mesh = build_mesh(1, 8)
    op = HQCOperator(model, lat, mesh)
    H = np.asarray(op.hessian(random_uh(mesh, 0.3, seed=7)).todense())
    K = np.asarray(constant_tensor_stiffness(mesh, np.array(harmonic_mean(psi) / m**2)).todense())
    assert np.max(np.abs(H - K)) < 1e-12 * np.max(np.abs(K))


def test_rhs_zero_and_constant_force():
    model = LinearSpring1D((1.0, 3.0))
    lat = chain_lattice(Fraction(1, 32), 2)
    mesh = build_mesh(1, 4)
    op = HQCOperator(model, lat, mesh)
    zero = LatticeField(lat, np.zeros((lat.n_sites, 1)))
    assert np.allclose(op.rhs(zero), 0.0)
    const = LatticeField(lat, np.full((lat.n_sites, 1), 2.0))
    b = op.rhs(const)
    # against zero-mean test functions a constant load does no work
    assert np.max(np.abs(b - b.mean(axis=0))) < 1e-14


def test_rhs_quadrature_consistency():
    # sampling-domain load approaches the exact lattice pairing as h refines
    from hqclab.fem import load_from_lattice

    model = LinearSpring1D((1.0, 3.0))
    lat = chain_lattice(Fraction(1, 256), 2)
    pos = lat.site_positions()
    fvals = np.sin(2 * np.pi * pos)
    fvals -= fvals.mean(axis=0)
    f = LatticeField(lat, fvals)
    errs = []
    for n in (4, 8, 16):
        mesh = build_mesh(1, n)
        op = HQCOperator(model, lat, mesh)
        b = op.rhs(f)
        exact = load_from_lattice(mesh, f)
        errs.append(np.max(np.abs(b - exact)) / np.max(np.abs(exact)))
    assert errs[2] < errs[0]
    slope = np.polyfit(np.log2([1 / 4, 1 / 8, 1 / 16]), np.log2(errs), 1)[0]
    assert slope >= 1.0


def _rhs_by_domain(op, f):
    """Oracle for the stacked ``rhs``: one scatter per sampling domain, in
    domain order, with each site's element and weights found in exact
    arithmetic."""
    mesh = op.mesh
    b = np.zeros((mesh.n_vertices, mesh.d))
    for t, dom in enumerate(op.domains):
        for site in dom.parent_sites:
            owner, lam, _ = site_element_oracle(mesh, op.lattice, site)
            w = np.array([float(x) for x in lam])[:, None] * f.values[site] * (
                mesh.volumes[t] / len(dom.parent_sites))
            np.add.at(b, mesh.elements[owner], w)
    return b


@pytest.mark.parametrize("m", [1, 2, 3])
def test_period_rhs_matches_per_domain_scatter(m):
    model = LinearSpring1D(tuple(np.arange(1.0, m + 1)))
    lat = chain_lattice(Fraction(1, 32), m)
    fvals = np.random.default_rng(m).standard_normal((lat.n_sites, 1))
    f = LatticeField(lat, fvals - fvals.mean(axis=0))
    for n in (2, 4, 8):
        op = HQCOperator(model, lat, build_mesh(1, n))
        assert np.array_equal(op.rhs(f), _rhs_by_domain(op, f))


@pytest.mark.parametrize("n_rep", [2, 4, 8])
def test_subgrid_rhs_refuses_and_names_the_lattice_pairing(n_rep):
    # all subgrid domains share the cells near the origin, so a load sampled
    # there would land on the hats of one element only
    from hqclab.potential import make_stochastic_model

    lat, model, f = make_stochastic_model(16, 3)
    for n in (2, 4):
        op = HQCOperator(model, lat, build_mesh(2, n), n_rep=n_rep)
        with pytest.raises(HQCError, match="fem.load_from_lattice"):
            op.rhs(f)


def test_full_sample_rhs_is_the_lattice_pairing():
    # a full-lattice sampling domain on every element samples f at every site
    from hqclab.fem import load_from_lattice
    from hqclab.potential import make_stochastic_model

    lat, model, f = make_stochastic_model(16, 3)
    for n in (2, 4, 8):
        mesh = build_mesh(2, n)
        b = HQCOperator(model, lat, mesh, n_rep=16).rhs(f)
        assert np.array_equal(b, load_from_lattice(mesh, f))
        # a subgrid domain samples f on 8^2 of the 16^2 cells only: no load
        with pytest.raises(HQCError, match="fem.load_from_lattice"):
            HQCOperator(model, lat, mesh, n_rep=8).rhs(f)


def test_rhs_refuses_a_force_on_another_lattice():
    # the period load and the full sample's lattice pairing alike
    from hqclab.potential import make_stochastic_model

    lat = chain_lattice(Fraction(1, 16), 2)
    op = HQCOperator(LinearSpring1D((1.0, 2.0)), lat, build_mesh(1, 4))
    fine = chain_lattice(Fraction(1, 32), 2)
    with pytest.raises(HQCError, match="another lattice"):
        op.rhs(LatticeField(fine, np.sin(2 * np.pi * fine.site_positions())))
    net, model, f = make_stochastic_model(16, 3)
    with pytest.raises(HQCError, match="another lattice"):
        HQCOperator(model, net, build_mesh(2, 2), n_rep=16).rhs(LatticeField(square_lattice(16), f.values))


def test_an_operator_refuses_a_mesh_of_another_dimension():
    with pytest.raises(MeshError, match="a 1D mesh on a 2D lattice"):
        HQCOperator(RandomBond2D(16, 0), square_lattice(16), build_mesh(1, 4), n_rep=16)
    with pytest.raises(MeshError, match="a 2D mesh on a 1D lattice"):
        HQCOperator(LinearSpring1D((1.0, 2.0)), chain_lattice(Fraction(1, 16), 2), build_mesh(2, 4))


def test_solve_zero_force():
    model = LinearSpring1D((1.0, 3.0))
    lat = chain_lattice(Fraction(1, 16), 2)
    mesh = build_mesh(1, 4)
    sol = solve_hqc(model, lat, mesh)
    assert np.allclose(sol.macro.values, 0.0, atol=1e-12)


def test_solve_matches_homogenized_fem():
    model = LinearSpring1D((1.0, 3.0))
    lat = chain_lattice(Fraction(1, 64), 2)
    mesh = build_mesh(1, 8)
    rng = np.random.default_rng(11)
    fvals = rng.standard_normal((lat.n_sites, 1))
    fvals -= fvals.mean(axis=0)
    f = LatticeField(lat, fvals)
    op = HQCOperator(model, lat, mesh)
    load = op.rhs(f)
    sol = op.solve(load=load, tol=1e-12)
    u_fem = macro_newton(mesh, HomogenizedDensity(model), load, 1e-12)[0]
    assert np.max(np.abs(sol.macro.values - u_fem.values)) < 1e-10


def test_lj_homogenized_fem_matches_hqc_solve():
    # one Newton driver behind both macro solvers: under the same load the
    # nonlinear HQC solve and the homogenized FEM reach the same field
    model = make_dynamics_model().model
    lat = chain_lattice(Fraction(1, 64), 2)
    mesh = build_mesh(1, 8)
    rng = np.random.default_rng(13)
    fvals = 50.0 * rng.standard_normal((lat.n_sites, 1))
    fvals -= fvals.mean(axis=0)
    op = HQCOperator(model, lat, mesh)
    load = op.rhs(LatticeField(lat, fvals))
    sol = op.solve(load=load, tol=1e-12)
    assert sol.iterations > 1
    u_fem = macro_newton(mesh, HomogenizedDensity(model), load, 1e-12)[0]
    gap = np.max(np.abs(sol.macro.values - u_fem.values))
    assert gap <= 1e-12 * np.max(np.abs(u_fem.values))


def test_each_macro_iterate_solves_its_correctors_once(monkeypatch):
    # the setup above: both macro solves take 5 Newton steps, each accepting
    # its full step, so 6 distinct iterates, and one stacked micro solve each
    from hqclab import hqc

    model = make_dynamics_model().model
    lat = chain_lattice(Fraction(1, 64), 2)
    mesh = build_mesh(1, 8)
    fvals = 50.0 * np.random.default_rng(13).standard_normal((lat.n_sites, 1))
    op = HQCOperator(model, lat, mesh)
    load = op.rhs(LatticeField(lat, fvals - fvals.mean(axis=0)))
    grads = []
    real = hqc.micro_solve

    def counting(system, F):
        grads.append(F.tobytes())
        return real(system, F)

    monkeypatch.setattr(hqc, "micro_solve", counting)
    for density in (op, HomogenizedDensity(model)):
        grads.clear()
        result = macro_newton(mesh, density, load, 1e-12)[1]
        assert result.iterations == 5
        assert len(grads) == len(set(grads)) == 6


def test_a_quadratic_macro_solve_takes_each_iterates_gradients_once(monkeypatch):
    # one Newton step: the start and the accepted trial, whose evaluation the
    # residual check of the converged field reads
    from hqclab import hqc

    mesh, lat = build_mesh(2, 4), square_lattice(16)
    op = HQCOperator(RandomBond2D(16, seed=5), lat, mesh, n_rep=8)
    fvals = np.random.default_rng(63).standard_normal((lat.n_sites, 2))
    load = load_from_lattice(mesh, LatticeField(lat, fvals - fvals.mean(axis=0)))
    calls = []
    real = hqc.all_element_gradients

    def counting(uh):
        calls.append(uh.values.tobytes())
        return real(uh)

    monkeypatch.setattr(hqc, "all_element_gradients", counting)
    sol = op.solve(load=load)
    assert sol.iterations == 1
    assert len(calls) == len(set(calls)) == 2


@pytest.mark.parametrize("case", ["lj-period", "tensor-route"])
def test_the_operator_is_a_density_of_the_homogenized_fem(case):
    # both macro solvers are one macro_newton over a density: the homogenized
    # FEM of the operator itself is its solve, bit for bit
    lj = case == "lj-period"
    model = make_dynamics_model().model if lj else RandomBond2D(16, seed=5)
    lat = chain_lattice(Fraction(1, 64), 2) if lj else square_lattice(16)
    mesh = build_mesh(model.d, 8 if lj else 4)
    fvals = (50.0 if lj else 1.0) * np.random.default_rng(63).standard_normal((lat.n_sites, model.d))
    op = HQCOperator(model, lat, mesh, n_rep=None if lj else 8)
    load = load_from_lattice(mesh, LatticeField(lat, fvals - fvals.mean(axis=0)))
    sol = op.solve(load=load)
    assert sol.iterations >= 1
    assert np.array_equal(macro_newton(mesh, op, load, 1e-10)[0].values, sol.macro.values)


def test_period_sampling_phi0_is_the_homogenized_density():
    model = make_dynamics_model().model
    mesh = build_mesh(1, 8)
    op = HQCOperator(model, chain_lattice(Fraction(1, 64), 2), mesh)
    grads = all_element_gradients(random_uh(mesh, 0.03, seed=64))
    density = HomogenizedDensity(model)
    assert np.array_equal(op.at(grads).phi, density.at(grads).phi)
    assert np.array_equal(op.at(grads).stress, density.at(grads).stress)
    assert np.array_equal(op.at(grads).tangent, density.at(grads).tangent)


def test_d2phi0_matches_element_tangents():
    # the homogenized tangent is the analytic condensed tangent of the cell
    model = make_dynamics_model().model
    lat = chain_lattice(Fraction(1, 16), 2)
    mesh = build_mesh(1, 4)
    uh = random_uh(mesh, 0.03, seed=14)
    tangents = HQCOperator(model, lat, mesh).element_tangents(uh)
    density = HomogenizedDensity(model)
    for F, A in zip(all_element_gradients(uh), tangents):
        assert np.max(np.abs(density.at(F).tangent[0] - A)) <= 1e-12 * np.max(np.abs(A))


class NewtonSpringLaw(SpringLaw):
    """Quadratic springs that do not declare themselves quadratic."""

    is_quadratic = False


class NewtonSprings(LinearSpring1D):
    def bond_specs(self, alpha, cells=None):
        return [BondSpec(spec.offset, NewtonSpringLaw(spec.law.psi))
                for spec in super().bond_specs(alpha, cells)]


def newton_springs(psi=(1.0, 3.0)):
    """Multi-species springs sent through the micro Newton path: a nonzero
    corrector whose exact values the effective tensors give."""
    return NewtonSprings(psi)


@pytest.mark.parametrize("make_model", [
    pytest.param(lambda: make_dynamics_model().model, id="lj-chain"),
    pytest.param(newton_springs, id="newton-springs"),
])
def test_energy_independent_of_call_history(make_model):
    # energy, gradient and correctors are functions of their argument alone:
    # evaluations at other fields (line-search trials, earlier Newton or
    # Verlet steps) must leave no trace in later ones.  The LJ chain's
    # corrector is 0 by symmetry, so only the springs, whose corrector is
    # not, can show a stale micro state.
    model = make_model()
    lat = chain_lattice(Fraction(1, 16), 2)
    mesh = build_mesh(1, 4)
    uh = random_uh(mesh, 0.03, seed=15)
    grads = all_element_gradients(uh)
    fresh = HQCOperator(model, lat, mesh)
    expected = (fresh.energy(uh), fresh.gradient(uh), fresh.at(grads).chi)
    op = HQCOperator(model, lat, mesh)
    for seed in (16, 17, 18):
        other = random_uh(mesh, 0.05, seed=seed)
        op.energy(other)
        op.gradient(other)
        op.element_tangents(other)
        assert op.energy(uh) == expected[0]
        assert np.array_equal(op.gradient(uh), expected[1])
        assert np.array_equal(op.at(grads).chi, expected[2])


@pytest.mark.parametrize("make_model, scale", [
    pytest.param(newton_springs, 0.3, id="newton-springs-m2"),
    pytest.param(lambda: newton_springs((1.0, 3.0, 0.7)), 0.3, id="newton-springs-m3"),
    pytest.param(lambda: make_dynamics_model().model, 0.003, id="lj-chain"),
])
def test_homogenized_correctors_match_hqc_correctors(make_model, scale):
    # crystal sampling domains are one period, so HQC and the homogenized
    # density solve the same cell problems through one stacked routine
    model = make_model()
    mesh = build_mesh(1, 8)
    op = HQCOperator(model, chain_lattice(Fraction(1, 32), model.m), mesh)
    grads = all_element_gradients(random_uh(mesh, scale, seed=52))
    chi = op.at(grads).chi
    assert np.array_equal(HomogenizedDensity(model).at(grads).chi, chi)


def test_nonlinear_micro_path_matches_effective_tensors():
    lat = chain_lattice(Fraction(1, 32), 2)
    mesh = build_mesh(1, 8)
    uh = random_uh(mesh, 0.3, seed=50)
    newton_op = HQCOperator(newton_springs(), lat, mesh)
    tensor_op = HQCOperator(LinearSpring1D((1.0, 3.0)), lat, mesh)
    chi = newton_op.at(all_element_gradients(uh)).chi
    assert np.max(np.abs(chi)) > 0.01

    def close(a, b):
        assert np.max(np.abs(np.asarray(a) - b)) <= 1e-12 * np.max(np.abs(b))

    close(newton_op.energy(uh), tensor_op.energy(uh))
    close(newton_op.gradient(uh), tensor_op.gradient(uh))
    close(newton_op.element_tangents(uh), tensor_op.element_tangents(uh))
    recon = [reconstruct(op, uh).values for op in (newton_op, tensor_op)]
    close(*recon)
    # per element: affine part plus the tiled corrector (one-cell torus: site = species)
    from support import affine_extension

    pos = lat.site_positions()
    owners = site_elements(mesh, lat)[0]
    for t in range(mesh.n_elements):
        mask = owners == t
        expected = affine_extension(uh, t)(pos[mask]) + lat.eps_float * chi[t][lat.site_species()[mask]]
        close(recon[0][mask], expected)


@pytest.mark.parametrize("make_model, failing", [
    # the LJ chain's corrector is 0 by symmetry: every zero guess passes
    pytest.param(lambda: make_dynamics_model().model, 0, id="lj-chain"),
    # the springs' corrector is nonzero under any nonzero gradient
    pytest.param(newton_springs, 8, id="newton-springs"),
])
def test_micro_solves_run_where_zero_guess_fails(monkeypatch, make_model, failing):
    # every gradient call starts all correctors from zero and takes Newton
    # steps on exactly the stack entries whose zero guess fails, whatever came
    # before
    from hqclab import network

    calls = set()   # stack entries whose Hessian a Newton step asked for
    real = network.newton

    def counting(evaluate, *args, **kwargs):
        def tracked(w, rows):
            energy, gradient, operator = evaluate(w, rows)

            def hessian():
                calls.update(rows.tolist())
                return operator()

            return energy, gradient, hessian

        return real(tracked, *args, **kwargs)

    monkeypatch.setattr(network, "newton", counting)
    lat = chain_lattice(Fraction(1, 32), 2)
    mesh = build_mesh(1, 8)
    assert mesh.n_elements == 8
    uh = random_uh(mesh, 0.003, seed=51)
    values = uh.values.copy()
    values[[2, 5]] += 0.0005
    uh2 = P1Field(mesh, values)
    op = HQCOperator(make_model(), lat, mesh)
    for field in (uh, uh, uh2, uh):
        calls.clear()
        op.gradient(field)
        assert len(calls) == failing


@pytest.mark.parametrize("psi", [(1.0, 3.0), (1.0, 3.0, 0.7), (1.0, 3.0, 0.5, 2.0)],
                         ids=["m2", "m3", "m4"])
def test_stacked_micro_solve_equals_single_cell_solves(psi):
    # one stacked Newton over all entries against one solve per gradient; the
    # zero gradient passes its zero guess, the others take Newton steps
    from hqclab.homog import cell_system, solve_cell_problem
    from hqclab.hqc import micro_solve

    model = newton_springs(psi)
    system = cell_system(model)
    grads = np.array([0.3, 0.0, -0.7, 1.2, 0.05]).reshape(-1, 1, 1)
    chi = micro_solve(system, grads)
    assert np.max(np.abs(chi)) > 0.01
    for t, F in enumerate(grads):
        assert np.array_equal(chi[t], solve_cell_problem(model, F))


@given(st.lists(st.floats(0.2, 5.0), min_size=2, max_size=4),
       st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6))
def test_stacked_micro_solve_equals_single_solves_on_random_springs(psi, strains):
    from hqclab.homog import cell_system, solve_cell_problem
    from hqclab.hqc import micro_solve

    model = newton_springs(tuple(psi))
    system = cell_system(model)
    grads = np.array(strains).reshape(-1, 1, 1)
    chi = micro_solve(system, grads)
    for t, F in enumerate(grads):
        assert np.array_equal(chi[t], solve_cell_problem(model, F))


def test_quadratic_converges_in_one_iteration():
    model = LinearSpring1D((1.0, 3.0))
    lat = chain_lattice(Fraction(1, 32), 2)
    mesh = build_mesh(1, 4)
    rng = np.random.default_rng(12)
    fvals = rng.standard_normal((lat.n_sites, 1))
    fvals -= fvals.mean(axis=0)
    sol = solve_hqc(model, lat, mesh, f=LatticeField(lat, fvals))
    assert sol.iterations == 1


def test_solve_is_deterministic():
    model = make_dynamics_model().model
    lat = chain_lattice(Fraction(1, 16), 2)
    mesh = build_mesh(1, 4)
    rng = np.random.default_rng(13)
    fvals = 0.01 * rng.standard_normal((lat.n_sites, 1))
    fvals -= fvals.mean(axis=0)
    f = LatticeField(lat, fvals)
    s1 = solve_hqc(model, lat, mesh, f=f)
    s2 = solve_hqc(model, lat, mesh, f=f)
    assert np.array_equal(s1.macro.values, s2.macro.values)


def test_translation_invariance_of_energy():
    model = make_dynamics_model().model
    lat = chain_lattice(Fraction(1, 16), 2)
    mesh = build_mesh(1, 4)
    uh = random_uh(mesh, 0.02, seed=14)
    shifted = P1Field(mesh, uh.values + 0.21)
    op = HQCOperator(model, lat, mesh)
    assert op.energy(uh) == pytest.approx(op.energy(shifted), rel=1e-12)


def test_reconstruct_zero_corrector_matches_macro():
    model = LinearSpring1D((2.0,))  # m = 1: no microstructure
    lat = chain_lattice(Fraction(1, 32), 1)
    mesh = build_mesh(1, 4)
    rng = np.random.default_rng(15)
    fvals = rng.standard_normal((lat.n_sites, 1))
    fvals -= fvals.mean(axis=0)
    sol = solve_hqc(model, lat, mesh, f=LatticeField(lat, fvals))
    recon = reconstruct(sol.operator, sol.macro)
    sampled = sample_on_lattice(sol.macro, lat)
    assert np.max(np.abs(recon.values - sampled.values)) < 1e-12


def test_reconstruct_single_period_element():
    # h = eps: each element's sites reproduce its micro state exactly
    model = LinearSpring1D((1.0, 3.0))
    lat = chain_lattice(Fraction(1, 4), 2)
    mesh = build_mesh(1, 4)
    uh = random_uh(mesh, 0.3, seed=16)
    op = HQCOperator(model, lat, mesh)
    recon = reconstruct(op, uh)
    # every site value is the element's affine part plus eps * chi
    chi = op.at(all_element_gradients(uh)).chi
    pos = lat.site_positions()
    owners = site_elements(mesh, lat)[0]
    from support import affine_extension

    for t in range(mesh.n_elements):
        mask = owners == t
        ext = affine_extension(uh, t)
        lin = ext(pos[mask])
        species = lat.site_species()[mask]
        expected = lin + lat.eps_float * chi[t][species]
        assert np.max(np.abs(recon.values[mask] - expected)) < 1e-14


def test_owner_rule_boundary_sites():
    mesh = build_mesh(1, 4)
    lat = chain_lattice(Fraction(1, 20), 1)
    owners = site_elements(mesh, lat, [0, 5, 6])[0]
    # the sites at 0 and 0.25 belong to the element with smallest barycenter
    # that contains them: elements 0 and 0; the one at 0.3 to element 1
    assert owners.tolist() == [0, 0, 1]


def test_affine_closure_two_spring_coefficient():
    # Cauchy-Born closure gives the arithmetic-mean ("wrong") coefficient
    psi = (1.0, 3.0)
    m = 2
    model = LinearSpring1D(psi)
    lat = chain_lattice(Fraction(1, 32), m)
    mesh = build_mesh(1, 4)
    uh = random_uh(mesh, 0.5, seed=17)
    from hqclab.fem import all_element_gradients

    grads = all_element_gradients(uh)
    expected = sum(
        mesh.volumes[t] * np.mean(psi) * (grads[t][0, 0] / m) ** 2 / 2
        for t in range(mesh.n_elements)
    )
    e_ad = HQCOperator(model, lat, mesh, relax=False).energy(uh)
    assert e_ad == pytest.approx(expected, rel=1e-12)
    # relaxation lowers the energy
    assert HQCOperator(model, lat, mesh).energy(uh) <= e_ad


def test_affine_closure_simple_lattice_equals_hqc():
    model = LinearSpring1D((2.0,))
    lat = chain_lattice(Fraction(1, 16), 1)
    mesh = build_mesh(1, 4)
    uh = random_uh(mesh, 0.5, seed=18)
    assert HQCOperator(model, lat, mesh, relax=False).energy(uh) == pytest.approx(
        HQCOperator(model, lat, mesh).energy(uh), rel=1e-14
    )


def test_affine_closure_2d_random_bond():
    lat = square_lattice(16)
    model = RandomBond2D(16, seed=2)
    mesh = build_mesh(2, 4)
    uh = random_uh(mesh, 0.2, seed=19)
    e_hqc = HQCOperator(model, lat, mesh, n_rep=16).energy(uh)
    e_ad = HQCOperator(model, lat, mesh, n_rep=16, relax=False).energy(uh)
    assert e_hqc <= e_ad


def test_stability_flag():
    model = make_dynamics_model().model
    lat = chain_lattice(Fraction(1, 8), 2)
    mesh = build_mesh(1, 2)
    op = HQCOperator(model, lat, mesh)
    grads = all_element_gradients(random_uh(mesh, 0.01, seed=20))
    for F, chi in zip(grads, op.at(grads).chi):
        # constants are in the kernel, so stability on the zero-mean subspace
        # is a nonnegative spectrum overall
        H = op.system.hessian(chi, F)   # the one-cell system: a dense stack of one
        eigs = np.linalg.eigvalsh(H[0])
        assert eigs.min() > -1e-10 * max(1.0, abs(eigs.max()))


def test_reconstruct_2d_homogeneous_network():
    # uniform bond strengths: correctors vanish, so the reconstruction is the
    # macro field sampled at the sites
    lat = square_lattice(16)
    model = RandomBond2D(16, seed=0)
    model.psi[:, :2] = 2.0
    model.psi[:, 2:] = 1.0
    mesh = build_mesh(2, 4)
    uh = random_uh(mesh, 0.1, seed=30)
    op = HQCOperator(model, lat, mesh, n_rep=16)
    recon = reconstruct(op, uh)
    sampled = sample_on_lattice(uh, lat)
    assert np.max(np.abs(recon.values - sampled.values)) < 1e-12


def test_owner_rule_2d_boundaries():
    # a site shared by several elements goes to the lexicographically
    # smallest barycenter among them; oracle: exact containment tested
    # against every element
    three_species = Multilattice(2, Fraction(1, 6), [(0, 0), (Fraction(1, 3), Fraction(1, 2)),
                                                     (Fraction(1, 2), Fraction(1, 2))])
    for lat, n in [(square_lattice(4), 2), (square_lattice(8), 4), (three_species, 3), (three_species, 1)]:
        mesh = build_mesh(2, n)
        owners, lam, offsets = site_elements(mesh, lat)
        for site in range(lat.n_sites):
            t, exact_lam, exact_offset = site_element_oracle(mesh, lat, site)
            assert owners[site] == t
            assert lam[site].tolist() == [float(x) for x in exact_lam]
            assert offsets[site].tolist() == [float(x) for x in exact_offset]


def test_micro_solve_collapse_reports():
    # 100% compression drives a bond length to zero: the solver reports the
    # inadmissible configuration instead of returning garbage
    from hqclab.hqc import micro_solve
    from hqclab.network import SolverError
    from hqclab.potential import PotentialError

    model = make_dynamics_model().model
    lat = chain_lattice(Fraction(1, 8), 2)
    mesh = build_mesh(1, 2)
    op = HQCOperator(model, lat, mesh)
    system = op.system
    with pytest.raises((SolverError, PotentialError)):
        micro_solve(system, np.array([[[-1.0]]]))


def test_micro_energy_matches_independent_minimizer():
    # 2D random subsystem: the micro solve's relaxed energy agrees with a
    # general-purpose optimizer run on the same constrained functional
    from scipy.optimize import minimize

    lat = square_lattice(4)
    model = RandomBond2D(4, seed=7)
    mesh = build_mesh(2, 1)
    op = HQCOperator(model, lat, mesh, n_rep=4)
    system = op.system
    F = np.array([[0.3, 0.1], [-0.2, 0.4]])
    chi = op.at(F[None]).chi[0]
    e_solver = system.energy(chi, F)

    n, d = system.n_sites, system.d

    def energy_of(x):
        w = np.zeros((n, d))
        w[1:] = x.reshape(n - 1, d)  # gauge: pin site 0
        return system.energy(w, F)

    res = minimize(energy_of, np.zeros((n - 1) * d), method="BFGS",
                   options={"gtol": 1e-12, "maxiter": 2000})
    assert res.fun == pytest.approx(e_solver, rel=1e-9)


def test_effective_tensors_are_cached_per_model(monkeypatch):
    from hqclab import hqc

    calls = []
    real = hqc.conductance_tensors

    def counting(system, relax):
        calls.append(relax)
        return real(system, relax)

    monkeypatch.setattr(hqc, "conductance_tensors", counting)
    model = LinearSpring1D((1.0, 3.0))
    lat = chain_lattice(Fraction(1, 16), 2)
    uh = random_uh(build_mesh(1, 4), 0.3, seed=40)
    op = HQCOperator(model, lat, build_mesh(1, 4))
    e_relaxed = op.energy(uh)
    assert len(calls) == 1
    # a second operator on the same model, another mesh: no new micro solve
    op2 = HQCOperator(model, lat, build_mesh(1, 8))
    op2.hessian(random_uh(op2.mesh, 0.3, seed=41))
    assert len(calls) == 1
    sens, A = op._quad_data()
    sens2, A2 = op2._quad_data()
    assert sens2 is sens and A2 is A
    assert op2.system is op.system
    # relax=False shares the system but has its own (Cauchy-Born) tensors
    frozen = HQCOperator(model, lat, build_mesh(1, 4), relax=False)
    assert frozen.system is op.system
    sens_cb, A_cb = frozen._quad_data()
    assert sens_cb is None and A_cb is not A and not np.allclose(A_cb, A)
    assert frozen.energy(uh) > e_relaxed
    assert calls == [True, False]
    # another model gets its own entries
    HQCOperator(LinearSpring1D((1.0, 3.0)), lat, build_mesh(1, 4)).energy(uh)
    assert calls == [True, False, True]


def test_full_sample_tensors_keyed_by_lattice_size():
    model = LinearSpring1D((2.0,))
    small, large = chain_lattice(Fraction(1, 8), 1), chain_lattice(Fraction(1, 16), 1)
    op_small = HQCOperator(model, small, build_mesh(1, 4), n_rep=8)
    op_large = HQCOperator(model, large, build_mesh(1, 4), n_rep=16)
    sens_small, A_small = op_small._quad_data()
    sens_large, A_large = op_large._quad_data()
    assert A_small is not A_large
    assert sens_small.shape[0] == 8 and sens_large.shape[0] == 16


def test_nonlinear_subgrid_sampling_on_several_elements_is_refused_at_construction():
    # its relaxed tangents need a stack of 4 Hessians on the 8-cell subgrid
    model = LennardJones1D(LennardJonesParams(s=(1.0,), ell=(1.0,), cutoff=2.0))
    lat = chain_lattice(Fraction(1, 64), 1)
    with pytest.raises(HQCError, match=r"n_rep=8\).*ROADMAP item 4"):
        HQCOperator(model, lat, build_mesh(1, 4), n_rep=8)
    # frozen correctors, a one-cell subgrid, one element and a quadratic law run
    for op in (HQCOperator(model, lat, build_mesh(1, 4), n_rep=8, relax=False),
               HQCOperator(model, lat, build_mesh(1, 4), n_rep=1),
               HQCOperator(model, lat, build_mesh(1, 1), n_rep=8),
               HQCOperator(LinearSpring1D((2.0,)), lat, build_mesh(1, 4), n_rep=8)):
        uh = random_uh(op.mesh, 0.01, seed=5)
        assert np.isfinite(op.energy(uh)) and np.isfinite(op.gradient(uh)).all()
        assert np.isfinite(op.element_tangents(uh)).all()


def test_a_memoized_sampling_still_refuses_other_species_shifts():
    from hqclab.lattice import Multilattice
    from hqclab.potential import PotentialError

    model = LinearSpring1D((1.0, 3.0))
    HQCOperator(model, chain_lattice(Fraction(1, 16), 2), build_mesh(1, 4))
    with pytest.raises(PotentialError, match="shifts differ"):
        HQCOperator(model, Multilattice(1, Fraction(1, 16), [0, Fraction(1, 3)]), build_mesh(1, 4))


@pytest.mark.parametrize("make_model, newton_calls", [
    pytest.param(lambda: LinearSpring1D((1.0, 3.0)), 0, id="springs"),
    pytest.param(newton_springs, 1, id="newton-springs"),
])
def test_micro_route_follows_the_compiled_bond_law(monkeypatch, make_model, newton_calls):
    from hqclab import hqc

    calls = []
    real = hqc.micro_solve

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(hqc, "micro_solve", counting)
    mesh = build_mesh(1, 4)
    op = HQCOperator(make_model(), chain_lattice(Fraction(1, 16), 2), mesh)
    uh = random_uh(mesh, 0.3, seed=60)
    for evaluate in (op.energy, op.gradient, op.element_tangents):
        calls.clear()
        evaluate(uh)
        assert len(calls) == newton_calls
    calls.clear()
    op.at(all_element_gradients(uh)).chi
    reconstruct(op, uh)
    assert len(calls) == 2 * newton_calls


@pytest.mark.parametrize("make_model, newton_calls", [
    pytest.param(lambda: make_dynamics_model().model, 1, id="lj-chain"),
    pytest.param(newton_springs, 1, id="newton-springs"),
    pytest.param(lambda: LinearSpring1D((1.0, 3.0)), 0, id="springs"),
])
def test_one_micro_state_serves_energy_gradient_and_reconstruction(monkeypatch, make_model, newton_calls):
    # energy, gradient and reconstruction read from one density state equal
    # those that solve their own correctors, bit for bit, at one corrector solve
    from hqclab import hqc

    mesh = build_mesh(1, 4)
    op = HQCOperator(make_model(), chain_lattice(Fraction(1, 16), 2), mesh)
    uh = random_uh(mesh, 0.03, seed=61)
    alone = op.energy(uh), op.gradient(uh), reconstruct(op, uh).values
    calls = []
    real = hqc.micro_solve

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(hqc, "micro_solve", counting)
    state = op.at(all_element_gradients(uh))
    shared = (float(mesh.volumes @ state.phi), nodal_forces(mesh, state.stress),
              reconstruct(op, uh, state).values)
    assert len(calls) == newton_calls
    assert shared[0] == alone[0]
    assert np.array_equal(shared[1], alone[1]) and np.array_equal(shared[2], alone[2])


@pytest.mark.parametrize("case", ["lj-chain", "tensor-route"])
def test_a_density_state_computes_only_what_is_read(monkeypatch, case):
    # the energy and phi0 compute no micro stress; the tensor route solves
    # nothing per state and contracts its correctors only for a reconstruction
    from hqclab import hqc, network

    lj = case == "lj-chain"
    model = make_dynamics_model().model if lj else LinearSpring1D((1.0, 3.0))
    mesh = build_mesh(1, 4)
    op = HQCOperator(model, chain_lattice(Fraction(1, 16), 2), mesh)
    uh = random_uh(mesh, 0.03, seed=62)
    grads = all_element_gradients(uh)
    op.at(grads).tangent   # the tensor route solves its tensors once per micro system
    calls = []
    for owner, name in ((hqc, "micro_solve"), (network.BondSystem, "stress"), (network.GaugeFixedOperator, "solve")):
        def counting(*args, _real=getattr(owner, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    op.energy(uh)
    assert calls == (["micro_solve"] if lj else [])
    HomogenizedDensity(model).phi0(grads)   # the cell system's corrector route on any law
    assert "stress" not in calls
    calls.clear()
    state = op.at(grads)
    state.phi, state.stress, state.tangent
    assert calls == (["micro_solve", "stress", "solve"] if lj else [])
    assert ("chi" in vars(state)) == lj
    reconstruct(op, uh, state)
    assert "chi" in vars(state) and calls == (["micro_solve", "stress", "solve"] if lj else [])


def test_tensor_route_contracts_one_tensor_like_per_element_copies():
    lat = square_lattice(8)
    mesh = build_mesh(2, 4)
    op = HQCOperator(RandomBond2D(8, seed=3), lat, mesh, n_rep=4)
    uh = random_uh(mesh, 0.3, seed=61)
    grads = all_element_gradients(uh)
    a = np.repeat(op._quad_data()[1][None], mesh.n_elements, axis=0)
    P = np.einsum("til,tjl->tij", grads, a)
    A = np.einsum("ik,tjl->tijkl", np.eye(2), a)   # delta_ik a_jl
    assert op.energy(uh) == float(mesh.volumes @ (0.5 * np.einsum("tij,tij->t", grads, P)))
    assert np.array_equal(op.element_tangents(uh), A)
    # the gradient is the stress form of the per-element copies, and the
    # product with the one Hessian Newton solves with agrees to rounding
    forces = nodal_forces(mesh, P)
    assert np.array_equal(op.gradient(uh), forces)
    K = op.hessian(uh)
    Ku = (K @ uh.values.ravel()).reshape(uh.values.shape)
    assert np.max(np.abs(Ku - forces)) <= 1e-14 * np.max(np.abs(forces))
    K_ref = assemble(mesh, A)[0].toarray()
    assert np.max(np.abs(K.toarray() - K_ref)) <= 1e-14 * np.max(np.abs(K_ref))


def uniform_network(n):
    model = RandomBond2D(n, seed=0)
    model.psi[:, :2] = 2.0
    model.psi[:, 2:] = 1.0
    return model


def test_period_sampling_refuses_cell_dependent_bond_laws():
    # the model's cell system, compiled at cell 0, would serve every element
    with pytest.raises(HQCError, match="n_rep"):
        HQCOperator(RandomBond2D(8, seed=2), square_lattice(8), build_mesh(2, 4))
    with pytest.raises(HQCError, match="n_rep"):
        HQCOperator(RandomBond2D(8, seed=2), square_lattice(8), build_mesh(2, 4), relax=False)
    # subgrid sampling of the same network compiles one shared subsystem
    HQCOperator(RandomBond2D(8, seed=2), square_lattice(8), build_mesh(2, 4), n_rep=4)


def test_cell_independence_check_compares_per_cell_parameters_only():
    # 0-d law parameters (LJ's s, ell, l6, l12, scale) are skipped; a per-cell
    # psi that differs between two cells is still refused
    from hqclab.hqc import _require_cell_independent

    with pytest.raises(HQCError, match="n_rep"):
        _require_cell_independent(RandomBond2D(8, seed=2), np.array([[0, 0], [0, 5]]))
    _require_cell_independent(uniform_network(8), np.array([[0, 0], [0, 5]]))
    _require_cell_independent(make_dynamics_model().model, np.array([[0], [5]]))


def test_cell_independence_check_includes_cell_zero():
    # the shared cell system is compiled at cell 0, which no element of this
    # placement samples: a law that differs there alone is refused, one that
    # differs on another unsampled cell is not
    from hqclab.hqc import _require_cell_independent

    lat, mesh = square_lattice(8), build_mesh(2, 4)
    cells = np.concatenate([dom.parent_cells for dom in place_sampling_domains(mesh, lat)])
    assert not np.isin([0, 1], cells).any()
    cells = lat.cell_multi[cells]
    at_zero, at_one = uniform_network(8), uniform_network(8)
    at_zero.psi[0] = 9.0
    at_one.psi[1] = 9.0
    with pytest.raises(HQCError, match="n_rep"):
        _require_cell_independent(at_zero, cells)
    with pytest.raises(HQCError, match="n_rep"):
        HQCOperator(at_zero, lat, mesh)
    _require_cell_independent(at_one, cells)
    op = HQCOperator(at_one, lat, mesh)
    assert np.array_equal(op.system.law.psi, uniform_network(8).psi[0])


@pytest.mark.parametrize("make_model", [
    pytest.param(lambda: make_dynamics_model().model, id="lj-chain"),
    pytest.param(lambda: LinearSpring1D((1.0, 3.0, 0.5)), id="springs-m3"),
    pytest.param(lambda: uniform_network(8), id="uniform-network"),
])
def test_period_sampling_and_homogenization_share_one_cell_system(make_model):
    from hqclab.homog import cell_system

    model = make_model()
    lat = chain_lattice(Fraction(1, 16), model.m) if model.d == 1 else square_lattice(8)
    op = HQCOperator(model, lat, build_mesh(model.d, 4))
    assert op.system is HomogenizedDensity(model).system is cell_system(model)
    assert HQCOperator(model, lat, build_mesh(model.d, 2), relax=False).system is op.system
    # another model compiles its own; a one-cell sampling subgrid is the cell
    assert HQCOperator(make_model(), lat, build_mesh(model.d, 4)).system is not op.system
    if model.m == 1:
        assert HQCOperator(model, lat, build_mesh(model.d, 4), n_rep=1).system is op.system


def test_equivalence_study_compiles_one_system_per_model(monkeypatch):
    # the tiny equivalence config: six trials in five groups (springs of
    # m = 2, 3, 4, the two LJ trials, the simple springs), one stacked report
    # and one ``ModelStack`` each; each stack's cell is compiled once and
    # shared by HQC and homogenization, not once per formulation
    from hqclab import experiments, homog, hqc, network

    built, inside, returned, models = [], [], [], []
    init, compile_system = network.BondSystem.__init__, network.compile_system
    report = experiments.mqc.equivalence_report

    def counting_init(self, *args, **kwargs):
        built.append(bool(inside))
        init(self, *args, **kwargs)

    def recording_compile(lattice, model):
        inside.append(1)
        try:
            returned.append(compile_system(lattice, model))
        finally:
            inside.pop()
        return returned[-1]

    def recording_report(group, *args):
        models.append(list(group))
        return report(group, *args)

    monkeypatch.setattr(network.BondSystem, "__init__", counting_init)
    monkeypatch.setattr(hqc, "compile_system", recording_compile)
    monkeypatch.setattr(homog, "compile_system", recording_compile)
    monkeypatch.setattr(experiments.mqc, "equivalence_report", recording_report)
    res = experiments.run_equivalence({"seed": "3", "trials_spring": "3", "trials_lj": "2",
                                       "trials_simple": "1"})
    assert res.summary["all_within_tolerance"]
    assert sorted(map(len, models)) == [1, 1, 1, 1, 2]
    assert len({id(model) for group in models for model in group}) == 5
    assert len(returned) == 10 and len({id(system) for system in returned}) == 5
    assert sum(built) == 5


def test_equivalence_study_builds_one_structure_per_bond_classes(monkeypatch):
    # nine models (eight spring draws and the LJ chain) in five trial groups
    # on five bond structures, spring m = 1..4 and the LJ cell: the stacks of
    # a group share its members' structure; incidence and shift-table
    # structure once per structure, block rows once per spring structure (the
    # LJ cells are stationary at the zero corrector and form no Hessian), and
    # one chain lattice per species count
    import weakref

    from hqclab import experiments, mqc, network

    counts = {"incidence": 0, "rows": 0, "chain": 0}
    models = set()

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    class CountingRows(network.BlockRows):
        def __init__(self, *args):
            counts["rows"] += 1
            super().__init__(*args)

    report = experiments.mqc.equivalence_report
    monkeypatch.setattr(network, "_STRUCTURES", weakref.WeakKeyDictionary())
    mqc._shift_structure.cache_clear()
    monkeypatch.setattr(network, "incidence_matrix", counting("incidence", network.incidence_matrix))
    monkeypatch.setattr(network, "BlockRows", CountingRows)
    monkeypatch.setattr(experiments, "chain_lattice", counting("chain", experiments.chain_lattice))
    monkeypatch.setattr(experiments.mqc, "equivalence_report",
                        lambda group, *args: models.update(group) or report(group, *args))
    res = experiments.run_equivalence({"seed": "3", "trials_spring": "6", "trials_lj": "2",
                                       "trials_simple": "2"})
    assert res.summary["all_within_tolerance"] and len(res.rows) == 10
    assert len(models) == 9
    assert counts == {"incidence": 5, "rows": 4, "chain": 4}
    assert mqc._shift_structure.cache_info().misses == 5


def test_equivalence_study_makes_one_stacked_report_per_trial_group(monkeypatch):
    # the tiny config: five groups, so five reports, each with one shift
    # Newton and one stacked micro Newton for homogenization over its
    # (trial, element) entries; HQC adds one micro Newton on the LJ group,
    # while the spring groups take its tensor route
    from hqclab import experiments, hqc, mqc

    reports, micro, shifts = [], [], []
    report, micro_solve, solve_shift_vectors = mqc.equivalence_report, hqc.micro_solve, mqc.solve_shift_vectors

    def recording(log, fn, key):
        def wrapper(*args, **kwargs):
            log.append(key(*args))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(mqc, "equivalence_report", recording(reports, report, lambda models, *a: len(models)))
    monkeypatch.setattr(hqc, "micro_solve", recording(
        micro, micro_solve, lambda system, grads: (type(system.law).__name__, len(grads))))
    monkeypatch.setattr(mqc, "solve_shift_vectors", recording(shifts, solve_shift_vectors,
                                                              lambda model, F, *a: (model.m, len(F))))
    res = experiments.run_equivalence({"seed": "3", "trials_spring": "3", "trials_lj": "2",
                                       "trials_simple": "1"})
    assert res.summary["all_within_tolerance"] and res.failures == 0
    assert reports == [1, 1, 1, 2, 1]
    assert sorted(micro) == [("LennardJonesLaw", 8)] * 2 + [("SpringLaw", 4)] * 4
    assert shifts == [(2, 4), (3, 4), (4, 4), (2, 8), (1, 4)]


def test_equivalence_study_stacks_each_group_once(monkeypatch):
    # the tiny config's five groups: the members' laws of each bond class of
    # each species are stacked once per group, although the cell-independence
    # check, the compiled system and the shift table each read the stack's
    # specs; the nodal values of a group's trials take one gradient call on
    # their (T, n_vertices, 1) stack, and no trial builds a P1 field
    from hqclab import experiments, fem, mqc, potential

    stacked, gradients, fields, groups = [], [], [], []
    entries, element_gradients = potential.BondLaw.entries.__func__, fem.element_gradients
    report = mqc.equivalence_report

    def counting_entries(cls, laws):
        stacked.append(cls.__name__)
        return entries(cls, laws)

    def counting_gradients(mesh, values):
        gradients.append(values.shape)
        return element_gradients(mesh, values)

    monkeypatch.setattr(potential.BondLaw, "entries", classmethod(counting_entries))
    monkeypatch.setattr(fem, "element_gradients", counting_gradients)
    monkeypatch.setattr(mqc, "element_gradients", counting_gradients)
    monkeypatch.setattr(fem.P1Field, "__post_init__", lambda self: fields.append(self))
    monkeypatch.setattr(mqc, "equivalence_report",
                        lambda models, *args: groups.append(models) or report(models, *args))
    res = experiments.run_equivalence({"seed": "3", "trials_spring": "3", "trials_lj": "2",
                                       "trials_simple": "1"})
    assert res.summary["all_within_tolerance"] and res.failures == 0
    assert len(groups) == 5
    # springs of m = 2, 3, 4 and 1: one bond class per species; the LJ chain: 6 per species
    assert len(stacked) == sum(len(group[0].bond_specs(alpha)) for group in groups
                               for alpha in range(group[0].m)) == 2 + 3 + 4 + 12 + 1
    assert gradients == [(len(group), 4, 1) for group in groups]
    assert fields == []


def test_stochastic_study_compiles_one_system_per_sampling(monkeypatch):
    # two samplings, two meshes, two relax values: each sampling's torus is
    # built and compiled once for its four operators, and the full sampling's
    # is the atomistic system; each sampling solves for its sensitivities once
    from hqclab import experiments, hqc, network

    built, solved, lattices = [], [], []
    init, tensors = network.BondSystem.__init__, hqc.conductance_tensors
    lattice_init = Multilattice.__init__

    def counting_init(self, structure, law):
        built.append(structure.n_sites)
        init(self, structure, law)

    def counting_lattice_init(self, *args, **kwargs):
        lattice_init(self, *args, **kwargs)
        lattices.append(self.cells_per_dim)

    def counting_tensors(system, relax):
        if relax:
            solved.append(system.n_sites)
        return tensors(system, relax)

    monkeypatch.setattr(network.BondSystem, "__init__", counting_init)
    monkeypatch.setattr(hqc, "conductance_tensors", counting_tensors)
    unit_cell(2, [(0, 0)])    # the process's one square unit cell, built by now
    monkeypatch.setattr(Multilattice, "__init__", counting_lattice_init)
    res = experiments.run_stochastic_2d({"n": "16", "seed": "3", "h_list": "1/2,1/4",
                                         "n_rep_list": "4,16", "fit_range": "0:2"})
    assert all(row[-1] == "ok" for row in res.rows)
    assert sorted(built) == [16, 256]
    assert sorted(solved) == [16, 256]
    # the study's lattice and its one n_rep = 4 torus; the n_rep = 16 torus is the lattice
    assert sorted(lattices) == [4, 16]


@pytest.mark.parametrize("make_model, lat", [
    pytest.param(lambda: uniform_network(8), square_lattice(8), id="uniform-network"),
    pytest.param(lambda: LinearSpring1D((1.0, 3.0)), chain_lattice(Fraction(1, 16), 2), id="springs"),
    pytest.param(lambda: LinearSpring1D((2.0,)), chain_lattice(Fraction(1, 16), 1), id="simple-springs"),
    pytest.param(newton_springs, chain_lattice(Fraction(1, 16), 2), id="newton-springs"),
    pytest.param(lambda: make_dynamics_model().model, chain_lattice(Fraction(1, 16), 2), id="lj-chain"),
])
def test_period_sampling_accepts_cell_independent_bond_laws(make_model, lat):
    model = make_model()
    mesh = build_mesh(model.d, 4)
    op = HQCOperator(model, lat, mesh)
    assert np.isfinite(op.energy(random_uh(mesh, 0.01, seed=62)))


# ------------------------------------- spring systems: the scalar tensor route


def scalar_route_cases():
    """(model, lattice, n_rep, exact) of spring samplings: a network subgrid
    solved by PCG, a one-cell network sampling (dense), a two-species 2D
    multilattice cell and a two-species chain, whose route must not move a bit."""
    from test_mqc import _TwoSpecies2D

    from hqclab.lattice import Multilattice

    two = _TwoSpecies2D(psi0=1.0, psi1=3.0)
    return [
        pytest.param(lambda: (RandomBond2D(32, seed=1), square_lattice(32), 8, False), id="network-pcg"),
        pytest.param(lambda: (RandomBond2D(8, seed=2), square_lattice(8), 1, False), id="network-n_rep-1"),
        pytest.param(lambda: (two, Multilattice(2, Fraction(1, 8), two.shifts()), None, False),
                     id="two-species-2d"),
        pytest.param(lambda: (LinearSpring1D((1.0, 3.0)), chain_lattice(Fraction(1, 16), 2), None, True),
                     id="springs-1d"),
    ]


@pytest.mark.parametrize("case", scalar_route_cases())
def test_scalar_tensor_route_matches_the_vector_route(case):
    # d scalar sensitivities s_j against the d^2 vector ones (e_i s_j), the
    # tensor delta_ik a_jl against the general condensed tangent, with and
    # without relaxation, and the correctors contracted from either
    model, lat, n_rep, exact = case()
    d = model.d
    mesh = build_mesh(d, 2)

    def close(x, ref):
        if exact:
            return np.array_equal(x, ref)
        return np.max(np.abs(x - ref)) <= 1e-12 * max(np.max(np.abs(ref)), 1e-300)

    for relax in (True, False):
        op = HQCOperator(model, lat, mesh, n_rep=n_rep, relax=relax)
        s, a = op._quad_data()
        sens, A = vector_tensors(op.system, relax)
        assert close(op.element_tangents(random_uh(mesh, 0.1, seed=70))[0], A)
        assert close(np.einsum("ik,jl->ijkl", np.eye(d), a), A)
        if not relax:
            assert s is None and sens is None
            continue
        assert s.shape == (op.system.n_sites, d)
        assert close(np.einsum("ix,nj->ijnx", np.eye(d), s), sens)
        grads = all_element_gradients(random_uh(mesh, 0.1, seed=71))
        assert close(op.at(grads).chi, np.einsum("tij,ijnx->tnx", grads, sens))


class _AnisotropicSpringLaw(BondLaw):
    """Test-local quadratic law with the stiffness psi diag(1, 2): quadratic,
    but not a scalar times the identity, so it has no ``scalar_hess``."""

    is_quadratic = True
    params = ("psi",)
    K = np.array([1.0, 2.0])

    def __init__(self, psi):
        self.psi = np.asarray(psi, dtype=float)

    def energy(self, gaps, rvec):
        return 0.5 * self.psi * np.sum(self.K * gaps**2, axis=-1)

    def grad(self, gaps, rvec):
        return self.psi[..., None] * self.K * gaps

    def hess(self, gaps, rvec):
        return self.psi[..., None, None] * np.broadcast_to(np.diag(self.K), gaps.shape[:-1] + (2, 2))


class _AnisotropicNetwork(RandomBond2D):
    def bond_specs(self, alpha, cells=None):
        return [BondSpec(spec.offset, _AnisotropicSpringLaw(spec.law.psi))
                for spec in super().bond_specs(alpha, cells)]


def test_tensor_route_refuses_a_quadratic_law_without_scalar_stiffness():
    # the tensor route needs the stiffness psi I and names the law it refuses;
    # the network solves the law's full Hessian instead of its scalar Laplacian
    from hqclab.potential import external_force_2d

    model = _AnisotropicNetwork(8, seed=4)
    lat, mesh = square_lattice(8), build_mesh(2, 2)
    op = HQCOperator(model, lat, mesh, n_rep=4)
    with pytest.raises(HQCError, match="_AnisotropicSpringLaw has no scalar stiffness"):
        op.energy(random_uh(mesh, 0.1, seed=72))
    assert op.system.operator(np.zeros((op.system.n_sites, 2))).d == 2
    f = external_force_2d(lat.site_positions())
    prob = EquilibriumProblem(lat, model, force=LatticeField(lat, f - f.mean(axis=0)))
    u = solve_equilibrium(prob, tol=1e-11)
    residual = prob.system.gradient(u.values / lat.eps_float) / lat.eps_float - prob.force.values
    assert avg_norm(residual) <= 1e-11 * (1 + avg_norm(prob.force.values))


def test_stochastic_sensitivity_and_reference_solve_scalar_columns(monkeypatch):
    # the n_rep = 128 sampling of the stochastic study and its atomistic
    # reference: every PCG holds the scalar Laplacian L of the 128 x 128
    # network (one row per site, 9 entries per row) and solves d = 2 columns
    from hqclab import network
    from hqclab.potential import make_stochastic_model

    solves = []
    pcg = network.GaugeFixedOperator._pcg

    def recorded(self, B):
        solves.append((self._H.shape, self._H.nnz, B.shape))
        return pcg(self, B)

    monkeypatch.setattr(network.GaugeFixedOperator, "_pcg", recorded)
    lat, model, f = make_stochastic_model(128, seed=1)
    expected = ((16384, 16384), 147456, (2, 16384))
    HQCOperator(model, lat, build_mesh(2, 8), n_rep=128)._quad_data()
    assert solves == [expected]
    solves.clear()
    solve_equilibrium(EquilibriumProblem(lat, model, force=f), tol=1e-11)
    assert solves and set(solves) == {expected}


def test_the_reference_and_full_sampling_share_one_laplacian(monkeypatch):
    # the atomistic reference and the n_rep = N sampling solve on one system,
    # whose spring Laplacian is built once for both
    from hqclab import network
    from hqclab.potential import make_stochastic_model

    calls = []
    matrix = network.BondSystem._matrix

    def counting(self, k):
        calls.append(self.cells)
        return matrix(self, k)

    monkeypatch.setattr(network.BondSystem, "_matrix", counting)
    lat, model, f = make_stochastic_model(16, seed=1)
    mesh = build_mesh(2, 4)
    solve_equilibrium(EquilibriumProblem(lat, model, force=f))
    HQCOperator(model, lat, mesh, n_rep=16).energy(random_uh(mesh, 0.1, seed=72))
    assert calls == [(16, 16)]
