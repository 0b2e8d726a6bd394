"""Verlet integration, conservation laws, and the HQC macro dynamics."""

import numpy as np
import pytest
from fractions import Fraction

from hqclab.atomistic import EquilibriumProblem, solve_equilibrium
from hqclab.dynamics import (
    DynamicState,
    MacroTrajectory,
    atomistic_accel,
    energy_drift,
    evolve,
    initial_condition,
    lumped_node_masses,
    run_atomistic_dynamics,
    run_hqc_dynamics,
    trajectory_error,
    verlet_step,
)
from hqclab.fem import P1Field, build_mesh, p1_interpolate_lattice
from hqclab.hqc import HQCOperator
from hqclab.lattice import LatticeField, chain_lattice, discrete_derivative, discrete_norms
from hqclab.network import SolverError
from hqclab.potential import LinearSpring1D, make_dynamics_model
from support import constant_tensor_stiffness, every_step_energy_dynamics, every_step_hqc_dynamics


def dynamics_problem(n_atoms):
    setup = make_dynamics_model()
    eps = Fraction(setup.model.m, n_atoms)
    lat = chain_lattice(eps, setup.model.m)
    masses = setup.mass_field(lat)
    return EquilibriumProblem(lat, setup.model, masses=masses), setup, lat


def test_initial_condition_amplitude_and_mean():
    prob, _, lat = dynamics_problem(64)
    u0 = initial_condition(prob)
    u_eq = solve_equilibrium(prob)
    pert = LatticeField(lat, u0.values - u_eq.values)
    du = discrete_derivative(pert, Fraction(1, 2))
    assert np.max(np.abs(du.values)) == pytest.approx(0.01, rel=1e-12)
    assert np.abs(pert.values.mean()) < 1e-12


def test_verlet_free_drift():
    state = DynamicState(u=np.array([[0.5]]), v=np.array([[2.0]]), t=0.0)
    new = verlet_step(state, lambda u: (np.zeros_like(u), None), 0.1)
    assert new.u[0, 0] == pytest.approx(0.5 + 0.1 * 2.0)
    assert new.v[0, 0] == pytest.approx(2.0)
    assert new.t == pytest.approx(0.1)


def test_verlet_harmonic_oscillator_second_order():
    # mass 1, stiffness k: x(t) = cos(w t); Verlet displacement error is O(tau^2)
    k = 4.0
    w = np.sqrt(k)
    period = 2 * np.pi / w

    def accel(u):
        return -k * u, None

    errs = []
    for tau in (period / 200, period / 400):
        state = DynamicState(u=np.array([[1.0]]), v=np.array([[0.0]]), t=0.0)
        n = int(round(period / tau))
        worst = 0.0
        for _ in range(n):
            state = verlet_step(state, accel, tau)
            worst = max(worst, abs(state.u[0, 0] - np.cos(w * state.t)))
        errs.append(worst)
    assert 3.0 <= errs[0] / errs[1] <= 5.0


def test_verlet_energy_error_bounded():
    k = 4.0

    def accel(u):
        return -k * u, None

    tau = 0.01
    state = DynamicState(u=np.array([[1.0]]), v=np.array([[0.0]]), t=0.0)
    for _ in range(5000):
        state = verlet_step(state, accel, tau)
        e = 0.5 * state.v[0, 0] ** 2 + 0.5 * k * state.u[0, 0] ** 2
        assert abs(e - 0.5 * k) < 0.01 * k  # bounded oscillation, no drift


def test_verlet_chain_evaluates_force_once_per_step():
    # the end-of-step acceleration carries over: one force call per step after
    # the first, and the same trajectory as re-evaluating it every step
    prob, _, lat = dynamics_problem(32)
    accel = atomistic_accel(prob)
    calls = []

    def counted(u):
        calls.append(1)
        return accel(u)

    rng = np.random.default_rng(3)
    u0 = 1e-3 * rng.standard_normal((lat.n_sites, 1))
    chained = DynamicState(u=u0.copy(), v=np.zeros_like(u0), t=0.0)
    fresh = DynamicState(u=u0.copy(), v=np.zeros_like(u0), t=0.0)
    for _ in range(10):
        chained = verlet_step(chained, counted, 1e-4)
        fresh = verlet_step(DynamicState(fresh.u, fresh.v, fresh.t), accel, 1e-4)
    assert len(calls) == 11
    assert np.array_equal(chained.a, accel(chained.u)[0])
    assert np.array_equal(chained.u, fresh.u) and np.array_equal(chained.v, fresh.v)


def test_verlet_time_reversibility_single_step():
    rng = np.random.default_rng(0)
    prob, _, lat = dynamics_problem(32)
    accel = atomistic_accel(prob)
    u = 1e-3 * rng.standard_normal((lat.n_sites, 1))
    v = 1e-3 * rng.standard_normal((lat.n_sites, 1))
    state = DynamicState(u=u.copy(), v=v.copy(), t=0.0)
    tau = 1e-4
    fwd = verlet_step(state, accel, tau)
    back = verlet_step(DynamicState(fwd.u, -fwd.v, 0.0), accel, tau)
    assert np.max(np.abs(back.u - u)) < 1e-12
    assert np.max(np.abs(back.v + v)) < 1e-12


def test_composed_reversibility_quadratic_chain():
    rng = np.random.default_rng(1)
    model = LinearSpring1D((1.0, 3.0))
    lat = chain_lattice(Fraction(1, 16), 2)
    prob = EquilibriumProblem(lat, model, masses=np.ones(lat.n_sites))
    accel = atomistic_accel(prob)
    u0 = 0.1 * rng.standard_normal((lat.n_sites, 1))
    state = DynamicState(u=u0.copy(), v=np.zeros_like(u0), t=0.0)
    tau = 1e-3
    for _ in range(50):
        state = verlet_step(state, accel, tau)
    state = DynamicState(state.u, -state.v, 0.0)
    for _ in range(50):
        state = verlet_step(state, accel, tau)
    assert np.max(np.abs(state.u - u0)) < 1e-10


def test_momentum_conservation():
    prob, setup, lat = dynamics_problem(64)
    u0 = initial_condition(prob)
    traj = run_atomistic_dynamics(prob, u0, t_final=0.002, tau=1e-4)
    masses = prob.masses[:, None]
    p = [float(np.sum(masses * v)) for v in traj.velocities]
    assert np.max(np.abs(np.array(p) - p[0])) < 1e-12


def test_stationary_trajectory_from_equilibrium():
    prob, _, lat = dynamics_problem(32)
    u_eq = solve_equilibrium(prob)
    traj = run_atomistic_dynamics(prob, u_eq, t_final=0.001, tau=1e-5)
    for u in traj.displacements:
        assert np.max(np.abs(u - u_eq.values)) < 1e-10


def test_atomistic_energy_drift_small():
    prob, _, lat = dynamics_problem(128)
    u0 = initial_condition(prob)
    spacing = lat.eps_float / 2
    traj = run_atomistic_dynamics(prob, u0, t_final=1 / 80, tau=spacing / 20)
    assert energy_drift(traj) <= 1e-4


def test_harmonic_chain_matches_normal_mode():
    # m=1 uniform chain: evolution of a single Fourier mode is exactly
    # u(t) = cos(w t) mode with w from the lattice dispersion
    psi = 2.0
    model = LinearSpring1D((psi,))
    lat = chain_lattice(Fraction(1, 32), 1)
    prob = EquilibriumProblem(lat, model, masses=np.ones(lat.n_sites))
    x = lat.site_positions().ravel()
    mode = np.cos(2 * np.pi * x)[:, None]
    eps = lat.eps_float
    w = np.sqrt(4 * psi * np.sin(np.pi * eps) ** 2 / eps**2)
    errs = []
    for tau in (1e-3, 5e-4):
        traj = run_atomistic_dynamics(prob, LatticeField(lat, 0.01 * mode), t_final=0.1, tau=tau)
        worst = 0.0
        for t, u in zip(traj.times, traj.displacements):
            exact = 0.01 * np.cos(w * t) * mode
            worst = max(worst, np.max(np.abs(u - exact)))
        errs.append(worst)
    assert 3.0 <= errs[0] / errs[1] <= 5.0


@pytest.mark.parametrize("sample_every", [1, 4, 32])
def test_trajectory_equals_the_every_step_energy_reference(sample_every):
    # the energy evaluated at recorded states only changes no recorded value;
    # 70 steps end between samples for 4 and 32, so the last step is recorded too
    prob, _, lat = dynamics_problem(64)
    u0 = initial_condition(prob)
    tau = lat.eps_float / 2 / 20
    traj = run_atomistic_dynamics(prob, u0, 70 * tau, tau, sample_every=sample_every)
    ref = every_step_energy_dynamics(prob, u0, 70 * tau, tau, sample_every=sample_every)
    assert len(traj.times) == len(ref.times) == 70 // sample_every + 1 + (70 % sample_every > 0)
    assert np.array_equal(traj.times, ref.times)
    assert np.array_equal(traj.energies, ref.energies)
    for field in ("displacements", "velocities"):
        assert len(getattr(traj, field)) == len(ref.times)
        for got, want in zip(getattr(traj, field), getattr(ref, field)):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("sample_every", [1, 32])
def test_blowup_detection(sample_every):
    prob, _, lat = dynamics_problem(64)
    u0 = initial_condition(prob)
    with pytest.raises(RuntimeError, match="blew up"):
        # far beyond the stability limit
        run_atomistic_dynamics(prob, u0, t_final=0.5, tau=lat.eps_float, sample_every=sample_every)


def test_blowup_between_samples_stops_at_the_first_non_finite_step():
    # the zigzag mode of a unit spring chain grows about (omega tau)^2 = 1024-fold
    # per step at tau = 1 and overflows long before the first sample at t = 128
    lat = chain_lattice(Fraction(1, 16), 1)
    prob = EquilibriumProblem(lat, LinearSpring1D((1.0,)), masses=np.ones(lat.n_sites))
    zigzag = 0.01 * (-1.0) ** np.arange(lat.n_sites)[:, None]
    accel = atomistic_accel(prob)
    with np.errstate(over="ignore", invalid="ignore"):
        state = verlet_step(DynamicState(zigzag.copy(), np.zeros_like(zigzag), 0.0), accel, 1.0)
        while np.isfinite(state.a).all():
            state = verlet_step(state, accel, 1.0)
        assert 1.0 < state.t < 128.0
        with pytest.raises(RuntimeError, match=f"blew up at t = {state.t:.6g}$"):
            run_atomistic_dynamics(prob, LatticeField(lat, zigzag), t_final=256.0, tau=1.0,
                                   sample_every=128)


def test_hqc_blowup_stops_at_the_first_non_finite_step():
    # tau = 1 is far beyond the stability limit of the 8-element spring chain:
    # the acceleration overflows long before the last of 400 steps
    model, lat, mesh = LinearSpring1D((1.0, 3.0)), chain_lattice(Fraction(1, 64), 2), build_mesh(1, 8)
    u0 = LatticeField(lat, 0.01 * np.sin(2 * np.pi * lat.site_positions()))
    op = HQCOperator(model, lat, mesh)
    node_mass = lumped_node_masses(mesh, 1.0)

    def accel(u):
        return -op.gradient(P1Field(mesh, u)) / node_mass[:, None], None

    with np.errstate(over="ignore", invalid="ignore"):
        u0_macro = p1_interpolate_lattice(mesh, u0).values
        state = DynamicState(u0_macro, np.zeros((mesh.n_vertices, 1)), 0.0)
        state = verlet_step(state, accel, 1.0)
        while np.isfinite(state.a).all():
            state = verlet_step(state, accel, 1.0)
        assert 1.0 < state.t < 400.0
        # the acceleration guard alone, with an energy that never leaves its bound
        with pytest.raises(SolverError, match=f"blew up at t = {state.t:.6g}$"):
            evolve(accel, lambda s: 0.0, u0_macro, 400.0, 1.0, 1, lambda s: None)
        # the run's energy guard stops it earlier still
        with pytest.raises(SolverError, match="blew up"):
            run_hqc_dynamics(model, lat, mesh, (1.0, 1.0), u0, t_final=400.0, tau=1.0)


def test_hqc_energy_blowup_with_finite_values_is_stopped():
    # the LJ chain at tau = 0.5 runs away while every value stays finite: the
    # macro energy (lumped kinetic plus HQC) first leaves 1e3 max(|E0|, 1) at step 5
    prob, setup, lat = dynamics_problem(128)
    u0 = initial_condition(prob)
    mesh, tau = build_mesh(1, 8), 0.5
    op = HQCOperator(setup.model, lat, mesh)
    node_mass = lumped_node_masses(mesh, float(np.mean(setup.species_masses)))

    def accel(u):
        return -op.gradient(P1Field(mesh, u)) / node_mass[:, None], None

    def energy(state):
        return 0.5 * float(node_mass @ np.sum(state.v**2, axis=1)) + op.energy(P1Field(mesh, state.u))

    state = DynamicState(p1_interpolate_lattice(mesh, u0).values, np.zeros((mesh.n_vertices, 1)), 0.0)
    e0 = energy(state)
    while abs(energy(state) - e0) <= 1e3 * max(abs(e0), 1.0):
        state = verlet_step(state, accel, tau)
        assert np.isfinite(state.a).all()
    assert state.t == 5 * tau
    with pytest.raises(SolverError, match=f"blew up at t = {state.t:.6g}$"):
        run_hqc_dynamics(setup.model, lat, mesh, setup.species_masses, u0, t_final=32.0, tau=tau)


@pytest.mark.parametrize("sample_every", [0, -1])
def test_sample_every_must_be_positive(sample_every):
    prob, _, lat = dynamics_problem(64)
    with pytest.raises(ValueError, match="sample_every"):
        run_atomistic_dynamics(prob, LatticeField(lat, np.zeros((lat.n_sites, 1))),
                               t_final=1e-3, tau=1e-4, sample_every=sample_every)


@pytest.mark.parametrize("t_final", [0.00105, 0.5e-4, 0.0, -1e-3],
                         ids=["between-steps", "below-one-step", "zero", "negative"])
@pytest.mark.parametrize("runner", ["atomistic", "hqc"])
def test_t_final_must_be_a_whole_number_of_steps(runner, t_final):
    prob, setup, lat = dynamics_problem(64)
    u0 = LatticeField(lat, np.zeros((lat.n_sites, 1)))
    with pytest.raises(ValueError, match="whole number of steps"):
        if runner == "atomistic":
            run_atomistic_dynamics(prob, u0, t_final=t_final, tau=1e-4)
        else:
            run_hqc_dynamics(setup.model, lat, build_mesh(1, 4), setup.species_masses, u0,
                             t_final=t_final, tau=1e-4)


def test_hqc_dynamics_simple_lattice_is_lumped_fem():
    # m=1 uniform chain: the HQC accelerations equal the lumped-mass P1 FEM
    # semidiscretization with coefficient psi (operator identity)
    psi = 1.7
    mass = 1.3
    model = LinearSpring1D((psi,))
    lat = chain_lattice(Fraction(1, 32), 1)
    mesh = build_mesh(1, 8)
    rng = np.random.default_rng(7)
    u = rng.standard_normal((mesh.n_vertices, 1))
    op = HQCOperator(model, lat, mesh)
    g = op.gradient(P1Field(mesh, u))
    node_mass = lumped_node_masses(mesh, mass)
    accel_hqc = -g / node_mass[:, None]
    K = np.asarray(constant_tensor_stiffness(mesh, np.array(psi)).todense())
    accel_fem = -(K @ u.ravel()) / node_mass
    assert np.max(np.abs(accel_hqc.ravel() - accel_fem)) < 1e-12 * max(np.max(np.abs(accel_fem)), 1.0)


def test_hqc_dynamics_runs_and_reconstructs():
    prob, setup, lat = dynamics_problem(128)
    u0 = initial_condition(prob)
    mesh = build_mesh(1, 4)
    traj = run_hqc_dynamics(setup.model, lat, mesh, setup.species_masses, u0,
                            t_final=1 / 40, tau=(1 / 4) / 20)
    assert isinstance(traj, MacroTrajectory)
    assert len(traj.times) == len(traj.reconstructions) == 3
    assert traj.reconstructions[0].values.shape == (lat.n_sites, 1)


@pytest.mark.parametrize("case", ["lj-chain", "spring-chain"])
def test_hqc_trajectory_equals_the_plain_verlet_reference(case):
    if case == "lj-chain":
        prob, setup, lat = dynamics_problem(128)
        model, masses, u0 = setup.model, setup.species_masses, initial_condition(prob)
    else:
        model, masses, lat = LinearSpring1D((1.0, 3.0)), (1.0, 2.0), chain_lattice(Fraction(1, 64), 2)
        u0 = LatticeField(lat, 0.01 * np.sin(2 * np.pi * lat.site_positions()))
    mesh = build_mesh(1, 8)
    tau = (1 / 8) / 20
    traj = run_hqc_dynamics(model, lat, mesh, masses, u0, t_final=6 * tau, tau=tau)
    ref = every_step_hqc_dynamics(model, lat, mesh, masses, u0, t_final=6 * tau, tau=tau)
    assert len(traj.times) == len(traj.reconstructions) == 7
    assert np.array_equal(traj.times, ref.times)
    for got, want in zip(traj.reconstructions, ref.reconstructions):
        assert np.array_equal(got.values, want.values)


def test_hqc_dynamics_solves_the_correctors_once_per_state(monkeypatch):
    # the force, the energy guard and the reconstruction of a state share one
    # stacked micro solve and one evaluation of the element gradients: n_steps + 1
    # of each for the states t = 0, tau, ..., 6 tau
    from hqclab import dynamics, hqc

    prob, setup, lat = dynamics_problem(128)
    calls = []
    for owner, name in ((hqc, "micro_solve"), (hqc, "all_element_gradients"), (dynamics, "all_element_gradients")):
        def counting(*args, _real=getattr(owner, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    tau = (1 / 8) / 20
    traj = run_hqc_dynamics(setup.model, lat, build_mesh(1, 8), setup.species_masses, initial_condition(prob),
                            t_final=6 * tau, tau=tau)
    assert len(traj.times) == 7
    assert calls.count("micro_solve") == calls.count("all_element_gradients") == 7


def test_trajectory_error_conventions():
    lat = chain_lattice(Fraction(1, 8), 1)
    rng = np.random.default_rng(9)
    fields = [LatticeField(lat, rng.standard_normal((lat.n_sites, 1))) for _ in range(3)]
    times = np.array([0.0, 0.5, 1.0])
    assert trajectory_error(times, fields, fields) == (0.0, 0.0)
    offset = [LatticeField(lat, f.values + 0.2) for f in fields]
    linf_l2, l2_h1 = trajectory_error(times, fields, offset)
    assert linf_l2 == pytest.approx(0.2)
    assert l2_h1 == pytest.approx(0.2 * np.sqrt(1.0))  # H1 of a constant is its L2
    # single-sample trajectories reduce to the static norms
    one = trajectory_error(np.array([0.0]), fields[:1], offset[:1])
    assert one[0] == pytest.approx(0.2) and one[1] == pytest.approx(0.2)


def test_trajectory_error_is_bitwise_the_per_sample_norms():
    # the neighbor index resolved once per call gives the norms of each sample alone
    lat = chain_lattice(Fraction(1, 16), 2)
    rng = np.random.default_rng(10)
    ref, app = ([LatticeField(lat, rng.standard_normal((lat.n_sites, 1))) for _ in range(4)] for _ in range(2))
    times = np.array([0.0, 0.1, 0.2, 0.3])
    norms = [discrete_norms(LatticeField(lat, a.values - r.values)) for r, a in zip(ref, app)]
    l2s, h1s = zip(*norms)
    want = float(np.max(l2s)), float(np.sqrt(np.trapezoid(np.asarray(h1s) ** 2, times)))
    assert trajectory_error(times, ref, app) == want
    other = chain_lattice(Fraction(1, 16), 2)
    with pytest.raises(ValueError, match="one lattice"):
        trajectory_error(times, ref[:3] + [LatticeField(other, ref[3].values)], app)
    with pytest.raises(ValueError, match="one lattice"):
        trajectory_error(times, ref, app[:3] + [LatticeField(other, app[3].values)])
    with pytest.raises(ValueError, match="sample times"):
        trajectory_error(times[:0], [], [])


def test_macro_initial_condition_interpolates():
    prob, setup, lat = dynamics_problem(64)
    u0 = initial_condition(prob)
    mesh = build_mesh(1, 4)
    macro0 = p1_interpolate_lattice(mesh, u0)
    for k, v in enumerate(mesh.vertices):
        site = lat.site_index((int(round(v[0] / lat.eps_float)),), 0)
        assert macro0.values[k, 0] == pytest.approx(u0.values[site, 0])
