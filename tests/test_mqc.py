"""Shift-vector solves, the corrector bijection, and the three-way equivalence."""

import math

import numpy as np
import pytest
from fractions import Fraction

from hqclab import mqc, network
from hqclab.fem import P1Field, all_element_gradients, build_mesh, p1_zero_mean
from hqclab.homog import cell_system, solve_cell_problem
from hqclab.lattice import chain_lattice
from hqclab.mqc import (
    ShiftSolveError,
    ShiftTable,
    equivalence_report,
    solve_shift_vectors,
)
from hqclab.potential import (
    BondSpec,
    LennardJones1D,
    LennardJonesParams,
    LinearSpring1D,
    PotentialError,
    SpringLaw,
    make_dynamics_model,
)
from support import (
    HardCoreLaw,
    bitwise_equal,
    check_stack_entries,
    corrector_from_shifts,
    mqc_element_energy,
    shifts_from_corrector,
    site_energy,
    site_gradient,
    site_hessian,
    solve_shift_state,
)


def test_symmetric_chain_zero_shift():
    model = LinearSpring1D((2.0, 2.0))
    q = solve_shift_vectors(model, [[1.0]])
    assert np.allclose(q, 0.0, atol=1e-14)


def test_worked_example_shift_and_density():
    # psi = (1, 3), F = 1: q_1 = (psi2 - psi1)/(psi1 + psi2) * F r = 0.25 and
    # the optimal density is psi0 (F r)^2 / 2 = 0.1875
    model = LinearSpring1D((1.0, 3.0))
    q = solve_shift_vectors(model, [[1.0]])
    assert q[0, 0] == pytest.approx(0.25, abs=1e-13)
    assert mqc_element_energy(model, [[1.0]], q) == pytest.approx(0.1875, abs=1e-13)


def test_zero_shifts_give_cauchy_born_density():
    model = LinearSpring1D((1.0, 3.0))
    F = 0.8
    r = 0.5
    e = mqc_element_energy(model, [[F]], np.zeros((1, 1)))
    expected = 0.5 * (1.0 + 3.0) / 2 * (F * r) ** 2  # (1/m) sum psi (Fr)^2/2
    assert e == pytest.approx(expected, rel=1e-14)


def test_simple_lattice_reduces_to_cauchy_born():
    model = LinearSpring1D((2.0,))
    F = 1.3
    e = mqc_element_energy(model, [[F]], np.zeros((0, 1)))
    assert e == pytest.approx(2.0 * F**2 / 2, rel=1e-14)


def test_shift_corrector_bijection():
    # a converged corrector maps to a shift solution and back, both residuals
    # staying below tolerance
    for model, F in ((LinearSpring1D((1.0, 3.0, 0.5)), 0.9), (make_dynamics_model().model, 0.03)):
        system = cell_system(model)
        chi = solve_cell_problem(model, [[F]])
        q_from_chi = shifts_from_corrector(chi)
        # shift residual at the mapped point
        q_solved = solve_shift_vectors(model, [[F]], guess=q_from_chi)
        assert np.max(np.abs(q_solved - q_from_chi)) < 1e-10
        # map back: the equivalent corrector solves the cell problem
        chi_back = corrector_from_shifts(q_from_chi, model.d)
        res = system.gradient(chi_back, np.array([[F]]))
        assert np.sqrt(np.mean(res**2)) < 1e-10 * (1 + abs(F))


def test_gauge_invariance_of_gaps():
    # shifting every species by a constant and renormalizing q_0 = 0 leaves
    # the element energy unchanged
    model = LinearSpring1D((1.0, 2.0, 4.0))
    rng = np.random.default_rng(3)
    q = rng.standard_normal((2, 1))
    e1 = mqc_element_energy(model, [[0.7]], q)
    chi = corrector_from_shifts(q, 1)  # different gauge of the same state
    e2 = mqc_element_energy(model, [[0.7]], shifts_from_corrector(chi))
    assert e1 == pytest.approx(e2, rel=1e-14)


def test_stationarity_of_solved_shifts():
    model = make_dynamics_model().model
    F = np.array([[0.02]])
    q = solve_shift_vectors(model, F)
    e0 = mqc_element_energy(model, F, q)
    step = 1e-7
    for k in range(q.size):
        qp = q.copy().ravel()
        qm = q.copy().ravel()
        qp[k] += step
        qm[k] -= step
        e1 = mqc_element_energy(model, F, qp.reshape(q.shape))
        e2 = mqc_element_energy(model, F, qm.reshape(q.shape))
        assert abs(e1 - e2) / (2 * step) < 1e-8 * (1 + abs(e0))


def test_equivalence_spring_chains():
    mesh = build_mesh(1, 4)
    rng = np.random.default_rng(21)
    for m in (2, 3, 4):
        psi = tuple(rng.uniform(0.5, 5.0, m))
        model = LinearSpring1D(psi)
        lat = chain_lattice(Fraction(1, 32), m)
        uh = p1_zero_mean(P1Field(mesh, 0.3 * rng.standard_normal((4, 1))))
        rep, = equivalence_report([model], lat, mesh, uh.values[None])
        assert rep.max_gap <= 1e-10 * (1 + abs(rep.e_hqc))


def test_equivalence_lj_small_deformation():
    mesh = build_mesh(1, 4)
    rng = np.random.default_rng(22)
    model = make_dynamics_model().model
    lat = chain_lattice(Fraction(1, 32), 2)
    uh = p1_zero_mean(P1Field(mesh, 0.02 * rng.standard_normal((4, 1))))
    rep, = equivalence_report([model], lat, mesh, uh.values[None])
    assert rep.max_gap <= 1e-9 * (1 + abs(rep.e_hqc))


def test_equivalence_simple_lattice():
    mesh = build_mesh(1, 4)
    rng = np.random.default_rng(23)
    model = LinearSpring1D((2.0,))
    lat = chain_lattice(Fraction(1, 32), 1)
    uh = p1_zero_mean(P1Field(mesh, rng.standard_normal((4, 1))))
    rep, = equivalence_report([model], lat, mesh, uh.values[None])
    assert rep.max_gap <= 1e-12 * (1 + abs(rep.e_hqc))


def test_shift_state_fields_per_species():
    model = LinearSpring1D((1.0, 3.0, 0.5))
    lat = chain_lattice(Fraction(1, 32), 3)
    mesh = build_mesh(1, 4)
    rng = np.random.default_rng(41)
    uh = p1_zero_mean(P1Field(mesh, 0.3 * rng.standard_normal((4, 1))))
    state = solve_shift_state(model, mesh, uh)
    assert len(state.fields) == 2  # species 1 and 2
    assert state.fields[0].values.shape == (mesh.n_elements, 1)
    assert state.residual <= 1e-12 * 2
    # element shifts reproduce the per-element solve
    from hqclab.fem import all_element_gradients
    from hqclab.mqc import solve_shift_vectors

    grads = all_element_gradients(uh)
    for t in range(mesh.n_elements):
        q = solve_shift_vectors(model, grads[t])
        assert np.allclose(state.element_shifts(t), q, atol=1e-13)


class _TwoSpecies2D:
    """Test-local 2D multilattice spring model: species at (0,0) and (1/2,1/2),
    each bonded to its four nearest cross-species neighbors with its own psi."""

    d = 2
    m = 2
    is_quadratic = True

    def __init__(self, psi0, psi1):
        from hqclab.lattice import Multilattice
        from hqclab.potential import BondSpec, SpringLaw

        half = Fraction(1, 2)
        self._shifts = [(Fraction(0), Fraction(0)), (half, half)]
        lat = Multilattice(2, 1, self._shifts)
        offsets = [(half, half), (-half, half), (half, -half), (-half, -half)]
        self._specs = []
        for alpha, psi in ((0, psi0), (1, psi1)):
            specs = [BondSpec(lat.resolve_offset(alpha, r), SpringLaw(np.array(psi))) for r in offsets]
            self._specs.append(specs)

    def shifts(self):
        return self._shifts

    def bond_specs(self, alpha, cells=None):
        return self._specs[alpha]


def test_equivalence_2d_two_species_crystal():
    from hqclab.lattice import Multilattice

    model = _TwoSpecies2D(psi0=1.0, psi1=3.0)
    lat = Multilattice(2, Fraction(1, 8), model.shifts())
    mesh = build_mesh(2, 2)
    rng = np.random.default_rng(55)
    uh = p1_zero_mean(P1Field(mesh, 0.2 * rng.standard_normal((mesh.n_vertices, 2))))
    rep, = equivalence_report([model], lat, mesh, uh.values[None])
    assert rep.max_gap <= 1e-10 * (1 + abs(rep.e_hqc))


def test_2d_two_species_shift_solve_matches_corrector():
    model = _TwoSpecies2D(psi0=1.0, psi1=3.0)
    F = np.array([[0.4, -0.1], [0.2, 0.3]])
    q = solve_shift_vectors(model, F)
    chi = solve_cell_problem(model, F)
    assert np.max(np.abs(q - shifts_from_corrector(chi))) < 1e-11


# ------------------------------------------------------- stacked shift table


def _bond_by_bond(model, F, shifts):
    """Oracle: element density and its shift gradient and Hessian, assembled bond
    by bond from the model's site energies (the former per-bond evaluation)."""
    m, d = model.m, model.d
    nq = (m - 1) * d
    q_full = np.vstack([np.zeros((1, d)), np.reshape(shifts, (m - 1, d))])
    energy = 0.0
    grad = np.zeros((m, d))
    hess = np.zeros((m, d, m, d))
    for beta in range(m):
        specs = model.bond_specs(beta)
        offsets = np.array([s.offset.r_float for s in specs])
        targets = [s.offset.species_target for s in specs]
        gaps = offsets @ F.T + q_full[targets] - q_full[beta][None, :]
        energy += site_energy(model, beta, list(gaps))
        gvecs = site_gradient(model, beta, list(gaps))
        hblocks = site_hessian(model, beta, list(gaps))
        for j, a in enumerate(targets):
            grad[a] += gvecs[j]
            grad[beta] -= gvecs[j]
            for k, c in enumerate(targets):
                blk = hblocks[j][k]
                hess[a, :, c, :] += blk
                hess[a, :, beta, :] -= blk
                hess[beta, :, c, :] -= blk
                hess[beta, :, beta, :] += blk
    return energy / m, grad[1:].reshape(nq) / m, hess[1:, :, 1:, :].reshape(nq, nq) / m


def _three_species_lj():
    return LennardJones1D(LennardJonesParams(s=(1.0, 1.5, 0.7), ell=(1.0, 0.98, 1.02), cutoff=2.0))


ORACLE_MODELS = {
    "spring-m2": lambda: LinearSpring1D((1.0, 3.0)),
    "spring-m3": lambda: LinearSpring1D((1.0, 3.0, 0.5)),
    "spring-m4": lambda: LinearSpring1D((2.0, 0.7, 4.0, 1.3)),
    "lj-dynamics": lambda: make_dynamics_model().model,
    "lj-3-species": _three_species_lj,
    "two-species-2d": lambda: _TwoSpecies2D(psi0=1.0, psi1=3.0),
}


def _random_stack(model, T, seed):
    rng = np.random.default_rng(seed)
    F = rng.uniform(-0.05, 0.05, (T, model.d, model.d))
    q = rng.uniform(-0.03, 0.03, (T, model.m - 1, model.d))
    return F, q


def _rel_err(a, b):
    return np.max(np.abs(np.asarray(a) - np.asarray(b))) / np.max(np.abs(b))


@pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
def test_shift_table_matches_bond_by_bond_oracle(name):
    model = ORACLE_MODELS[name]()
    table = ShiftTable(model)
    F, q = _random_stack(model, 6, seed=len(name))
    energy = table.energy(F, q)
    grad, hess, _ = table.derivatives(F, q)
    assert energy.shape == (6,) and grad.shape == (6, model.m - 1, model.d)
    for t in range(6):
        e_ref, g_ref, h_ref = _bond_by_bond(model, F[t], q[t])
        assert abs(energy[t] - e_ref) <= 1e-14 * abs(e_ref)
        assert _rel_err(grad[t].ravel(), g_ref) <= 1e-14
        assert _rel_err(hess[t], h_ref) <= 1e-14


@pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
def test_shift_table_stack_equals_single_elements(name):
    model = ORACLE_MODELS[name]()
    table = ShiftTable(model)
    F, q = _random_stack(model, 5, seed=7)
    energy = table.energy(F, q)
    grad, hess, _ = table.derivatives(F, q)
    shifts = solve_shift_vectors(model, F)
    for t in range(5):
        one = slice(t, t + 1)
        g1, h1, _ = table.derivatives(F[one], q[one])
        assert _rel_err(energy[one], table.energy(F[one], q[one])) <= 1e-15
        assert _rel_err(grad[one], g1) <= 1e-15
        assert _rel_err(hess[one], h1) <= 1e-15
        single = solve_shift_vectors(model, F[t])
        assert np.max(np.abs(shifts[t] - single)) <= 1e-15 * (1 + np.max(np.abs(single)))


@pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
def test_shift_tables_of_one_structure_share_it(name):
    # a table's bond arrays and incidence are fixed by its structure: a second
    # model of it (other spring coefficients) shares them, and a table built
    # with the memo cleared evaluates bit for bit alike
    model = ORACLE_MODELS[name]()
    table = ShiftTable(model)
    other = ShiftTable(LinearSpring1D(model.psi[::-1]) if isinstance(model, LinearSpring1D)
                       else ORACLE_MODELS[name]())
    assert all(getattr(other, key) is getattr(table, key) for key in ("src", "dst", "rvec", "B"))
    mqc._shift_structure.cache_clear()
    fresh = ShiftTable(model)
    assert fresh.B is not table.B
    F, q = _random_stack(model, 5, seed=3)
    assert bitwise_equal(fresh.energy(F, q), table.energy(F, q))
    for mine, theirs in zip(fresh.derivatives(F, q), table.derivatives(F, q)):
        assert bitwise_equal(mine, theirs)


def test_solve_shift_state_reports_the_newton_residual():
    model = make_dynamics_model().model
    mesh = build_mesh(1, 4)
    rng = np.random.default_rng(8)
    uh = p1_zero_mean(P1Field(mesh, 0.02 * rng.standard_normal((4, 1))))
    state = solve_shift_state(model, mesh, uh)
    grads = all_element_gradients(uh)
    _, res = mqc._shift_newton(ShiftTable(model), grads, np.zeros((4, 1, 1)), mqc.SHIFT_TOL, 50)
    assert state.residual == res.max()
    assert 0.0 < state.residual <= 1e-12 * (1 + np.abs(grads).max())


# ------------------------------------------- the rounding floor of the shift Newton


class _GivenForces:
    """A stand-in bond law whose forces are given, with zero stiffness."""

    def __init__(self, forces):
        self.forces = forces

    def grad(self, gaps, rvec):
        return self.forces

    def hess(self, gaps, rvec):
        return np.zeros(gaps.shape + gaps.shape[-1:])


def _exact_shift_gradient(table, forces):
    """B forces / m by ``math.fsum`` over each row of B, per element and component."""
    T, _, d = forces.shape
    return np.array([[[math.fsum(table.B[a] * forces[t, :, c]) for c in range(d)]
                      for a in range(table.m - 1)] for t in range(T)]) / table.m


@pytest.mark.parametrize("name", ["lj-dynamics", "two-species-2d"])
def test_shift_gradient_is_within_its_rounding_band_under_heavy_cancellation(name):
    # bond forces of +-1e4 per element and component with residues near
    # 1e-12: each species is the source of as many bonds as it is the target
    # of, so every row of B cancels to its residues, which the float product
    # loses to rounding, but by no more than the band
    model = ORACLE_MODELS[name]()
    table = ShiftTable(model)
    rng = np.random.default_rng(9)
    T, nb, d = 3, len(table.src), model.d
    forces = 1e4 * rng.choice([-1.0, 1.0], size=(T, 1, d)) + 1e-12 * rng.standard_normal((T, nb, d))
    table.law = _GivenForces(forces)
    grad, _, band = table.derivatives(np.zeros((T, d, d)), np.zeros((T, model.m - 1, d)))
    exact = _exact_shift_gradient(table, forces)
    assert not np.array_equal(grad, exact)
    assert np.all(np.linalg.norm((grad - exact).reshape(T, -1), axis=1) <= band)


def test_shift_newton_converges_at_its_rounding_floor():
    # the compressions at which the float shift residual of the dynamics
    # chain stalls above SHIFT_TOL (1 + |F|) (24 of 31 with one LJ term per
    # directed bond), and a three-species cell whose bond forces do not
    # cancel: the band stops every element, one at a time or as one stack,
    # with the exact residual inside it
    from test_network import COMPRESSIONS, three_species_lj

    F = COMPRESSIONS[:, None, None]
    threshold = mqc.SHIFT_TOL * (1 + np.abs(COMPRESSIONS))
    for model in (make_dynamics_model().model, three_species_lj()):
        q = solve_shift_vectors(model, F)
        table = ShiftTable(model)
        _, _, band = table.derivatives(F, q)
        exact = _exact_shift_gradient(table, table.law.grad(table.gaps(F, q), table.rvec))
        assert np.all(np.linalg.norm(exact.reshape(len(F), -1), axis=1) <= threshold + band)
        for t in range(len(F)):
            assert np.array_equal(solve_shift_vectors(model, F[t]), q[t])


# ------------------------------------------------------ failure semantics


class _HardCoreDynamicsModel(LennardJones1D):
    """The dynamics LJ chain with hard-core bonds: a bond collapses below half
    the equilibrium length of the species that lists it.  ``strength`` scales
    every LJ strength, which leaves the Newton steps as they are."""

    def __init__(self, strength=1.0):
        params = make_dynamics_model().model.params
        super().__init__(LennardJonesParams(tuple(strength * s for s in params.s), params.ell, params.cutoff))
        self._specs = [[BondSpec(s.offset, HardCoreLaw(s.law.a6, s.law.a12, s.law.scale, 0.5 * ell))
                        for s in specs] for specs, ell in zip(self._specs, self.params.ell)]


@pytest.mark.parametrize("model", [make_dynamics_model().model, _HardCoreDynamicsModel()],
                         ids=["lj", "lj-hard-core"])
def test_collapsing_step_is_halved_for_its_element_only(model, monkeypatch):
    # element 0 starts where the Hessian is nearly flat: its full Newton step
    # squeezes a bond to 0.17 of its length (a rise in energy for the LJ law, a
    # PotentialError for the hard core); elements 1 and 2 accept full steps
    F = np.array([[[0.2]], [[0.2]], [[0.05]]])
    guess = np.array([[[-0.062]], [[0.1]], [[0.03]]])
    table = ShiftTable(model)
    grad, hess, _ = table.derivatives(F[:1], guess[:1])
    full = guess[:1] - grad / hess  # one shift dof: the Newton step is a quotient
    bonds = table.law.scale * np.abs(table.rvec + table.gaps(F[:1], full))
    assert np.min(bonds) < 0.2
    if isinstance(model, _HardCoreDynamicsModel):
        with pytest.raises(PotentialError):
            table.energy(F[:1], full)

    trials = []
    trial_energy = mqc._trial_energy

    def counted(table, F, q):
        trials.append(len(q))
        return trial_energy(table, F, q)

    monkeypatch.setattr(mqc, "_trial_energy", counted)
    shifts = solve_shift_vectors(model, F, guess=guess)
    assert trials[:2] == [3, 1]  # only element 0 is tried again, with half the step
    monkeypatch.undo()
    for t in range(3):
        single = solve_shift_vectors(model, F[t], guess=guess[t])
        assert np.array_equal(shifts[t], single)
    assert shifts[0, 0, 0] == pytest.approx(-shifts[1, 0, 0], rel=1e-12)  # the two dimer branches


def test_unconverged_element_fails_the_whole_stack():
    # element 1 starts 0.02 off its shift and needs more than two Newton steps;
    # its neighbors start converged, yet the stack gives no partial result
    model = make_dynamics_model().model
    F = np.array([[[0.01]], [[-0.02]], [[0.03]], [[0.05]]])
    guess = solve_shift_vectors(model, F)
    guess[1] += 0.02
    with pytest.raises(ShiftSolveError) as single:
        solve_shift_vectors(model, F[1], guess=guess[1], max_iter=2)
    worst = single.value.args[0].split("worst residual ")[1].split()[0]
    assert float(worst) > 1e-3
    with pytest.raises(ShiftSolveError, match=f"worst residual {worst} on 1 of 4 elements"):
        solve_shift_vectors(model, F, guess=guess, max_iter=2)
    rest = [0, 2, 3]
    assert np.array_equal(solve_shift_vectors(model, F[rest], guess=guess[rest], max_iter=2),
                          guess[rest])


# ------------------------------------------------------------- entry stacks


def test_stack_entries_converge_at_their_own_iterations(monkeypatch):
    # three LJ chains of one layout, whose shifts and correctors are zero by
    # symmetry: entry 0 starts there, the others at growing distances, so
    # the active rows of both Newtons shrink and each entry keeps its own law
    from hqclab.potential import LennardJonesLaw

    params = make_dynamics_model().model.params
    models = [LennardJones1D(params), LennardJones1D(LennardJonesParams((1.0, 1.0), (1.0, 1.02), 3.0)),
              LennardJones1D(LennardJonesParams((0.5, 2.0), (1.01, 0.98), 3.0))]
    models = [models[0], models[1], models[2], models[1]]
    F = np.array([0.0, 0.03, -0.05, 0.01])[:, None, None]
    rows, take = [], LennardJonesLaw.take

    def recording(law, r):
        if law.a6.ndim > 1:   # a law of the stack, not of a model alone
            rows.append(len(r))
        return take(law, r)

    monkeypatch.setattr(LennardJonesLaw, "take", recording)
    q = np.array([0.0, 0.002, 0.01, 0.03])[:, None, None]
    check_stack_entries(models, F, np.concatenate([-q / 2, q / 2], axis=1), q)
    assert set(rows) == {1, 3, 4}   # all four, then three, then one


def test_a_collapsing_stack_entry_is_tried_with_its_own_law():
    # the states of test_collapsing_step_is_halved_for_its_element_only on a
    # stack whose entry 0 has a tenth of the LJ strength: its full Newton step
    # collapses a hard-core bond, so that trial is re-run entry by entry.
    # Tried with entry 0's law, entries 1 and 2 would read a rise, halve
    # their steps and leave their own converged path
    models = [_HardCoreDynamicsModel(0.1), _HardCoreDynamicsModel(), _HardCoreDynamicsModel()]
    F = np.array([[[0.2]], [[0.2]], [[0.05]]])
    shifts = np.array([-0.062, 0.1, 0.03])
    table = mqc.ShiftTable(models[0])
    grad, hess, _ = table.derivatives(F[:1], shifts[:1, None, None])
    with pytest.raises(PotentialError):
        table.energy(F[:1], shifts[:1, None, None] - grad / hess)
    w = np.stack([-shifts / 2, shifts / 2], axis=1)[:, :, None]
    check_stack_entries(models, F, w, shifts[:, None, None])


class _DetachedSpecies(LinearSpring1D):
    """Three-species chain whose third species has no bonds: a singular shift Hessian."""

    def __init__(self):
        super().__init__((1.0, 3.0, 2.0))
        lat = chain_lattice(1, 3)
        self._specs = [[BondSpec(lat.resolve_offset(0, Fraction(1, 3)), SpringLaw(np.array(1.0)))],
                       [BondSpec(lat.resolve_offset(1, Fraction(-1, 3)), SpringLaw(np.array(3.0)))],
                       []]


def test_singular_shift_hessian_raises():
    model = _DetachedSpecies()
    with pytest.raises(ShiftSolveError, match="singular shift Hessian"):
        solve_shift_vectors(model, [[0.4]])
    with pytest.raises(ShiftSolveError, match="singular shift Hessian"):
        solve_shift_vectors(model, np.array([[[0.0]], [[0.4]]]))


# ------------------------------------------------------------ independence


def test_mqc_binds_nothing_from_network_but_solver_error():
    # MQC is the independent reference of the equivalence check: no bond
    # system, Newton driver or gauge-fixed solver of the shared engine
    bound = {name for name, value in vars(mqc).items()
             if value is network or getattr(value, "__module__", None) == network.__name__}
    assert bound == {"SolverError"}
    for name in ("BondSystem", "compile_system", "newton", "newton_zero_mean", "GaugeFixedOperator"):
        assert not hasattr(mqc, name)
