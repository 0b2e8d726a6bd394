"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest
from fractions import Fraction

from hqclab import atomistic, dynamics, fem, homog, hqc, mqc
from hqclab.cli import main as cli_main
from hqclab.experiments import (
    run_converge_1d,
    run_dynamics_1d,
    run_equivalence,
    run_stochastic_2d,
)
from hqclab.lattice import (
    LatticeField,
    chain_lattice,
    discrete_derivative,
    project_zero_mean,
)
from hqclab.potential import LinearSpring1D, make_dynamics_model
from support import (
    constant_tensor_stiffness,
    corrector_from_shifts,
    energy_gradient,
    inner_product,
    shifts_from_corrector,
    site_energy,
    site_gradient,
    site_hessian,
)


def _report(num: int, name: str, elapsed: float, budget: float) -> None:
    print(f"\nACCEPTANCE {num} ({name}): PASS in {elapsed:.1f}s (budget {budget:.0f}s)")


def test_acceptance_1_equivalence():
    t0 = time.time()
    res = run_equivalence({})
    assert res.failures == 0
    assert res.summary["n_trials"] >= 50
    assert res.summary["all_within_tolerance"]
    elapsed = time.time() - t0
    assert elapsed <= 30
    _report(1, "three-way energy equivalence", elapsed, 30)


def test_acceptance_2_harmonic_mean():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    for _ in range(20):
        m = int(rng.integers(2, 7))
        psi = tuple(rng.uniform(0.2, 9.0, m))
        F = float(rng.uniform(-3, 3))
        density = homog.HomogenizedDensity(LinearSpring1D(psi))
        expected = homog.harmonic_mean(psi) * (F / m) ** 2 / 2
        assert density.phi0([[F]]) == pytest.approx(expected, rel=1e-12)
    psi1, psi2 = 1.0, 3.0
    assert homog.harmonic_mean([psi1, psi2]) == pytest.approx(2 * psi1 * psi2 / (psi1 + psi2), rel=1e-14)
    elapsed = time.time() - t0
    _report(2, "harmonic-average cell solutions", elapsed, 30)


def test_acceptance_3_converge_1d():
    t0 = time.time()
    res = run_converge_1d({})
    assert res.failures == 0
    s = res.summary
    assert 0.85 <= s["slope_uhc_h1"] <= 1.15
    assert 1.8 <= s["slope_uh_l2"] <= 2.2
    assert s["uh_h1_ratio"] <= 3.0
    assert s["uh_l2_final_rel"] <= 10 * s["eps"]
    elapsed = time.time() - t0
    assert elapsed <= 120
    _report(3, "1D multilattice convergence", elapsed, 120)


def test_acceptance_4_stochastic_2d():
    t0 = time.time()
    res = run_stochastic_2d({})
    assert res.failures == 0
    s = res.summary
    assert 1.6 <= s["slope_hqc_full"] <= 2.4
    assert s["ad_min_over_first"] >= 0.5
    assert s["floor_ratio_nrep_8"] > 1.0
    assert s["floor_ratio_nrep_32"] > 1.0
    elapsed = time.time() - t0
    assert elapsed <= 300
    _report(4, "2D random network convergence", elapsed, 300)


def test_acceptance_5_dynamics_1d():
    t0 = time.time()
    res = run_dynamics_1d({})
    assert res.failures == 0
    s = res.summary
    assert 1.6 <= s["slope_linf_l2"] <= 2.4
    assert 0.7 <= s["slope_l2_h1"] <= 1.3
    assert s["ref_energy_drift"] <= 1e-4
    elapsed = time.time() - t0
    assert elapsed <= 300
    _report(5, "slow dynamics convergence", elapsed, 300)


def test_acceptance_6_derivative_consistency():
    t0 = time.time()
    rng = np.random.default_rng(6)

    # site-level gradients and Hessians, all three models
    from hqclab.potential import RandomBond2D

    cases = []
    spring = LinearSpring1D((1.0, 3.0))
    lj = make_dynamics_model().model
    rb = RandomBond2D(4, seed=1)
    for alpha in range(2):
        cases.append((spring, alpha, [0.1 * rng.standard_normal(1) for _ in spring.bond_specs(alpha)], None))
        cases.append((lj, alpha, [0.02 * rng.standard_normal(1) for _ in lj.bond_specs(alpha)], None))
    cases.append((rb, 0, [0.1 * rng.standard_normal(2) for _ in rb.bond_specs(0, (0, 3))], (0, 3)))
    step = 1e-5
    for model, alpha, gaps, cell in cases:
        grad = site_gradient(model, alpha, gaps, cell)
        hess = site_hessian(model, alpha, gaps, cell)
        for j in range(len(gaps)):
            for comp in range(len(gaps[j])):
                plus = [np.array(g, float) for g in gaps]
                minus = [np.array(g, float) for g in gaps]
                plus[j][comp] += step
                minus[j][comp] -= step
                fd = (site_energy(model, alpha, plus, cell) - site_energy(model, alpha, minus, cell)) / (2 * step)
                scale = max(abs(grad[j][comp]), 1e-2)
                assert abs(fd - grad[j][comp]) <= 1e-6 * scale
                gp = site_gradient(model, alpha, plus, cell)
                gm = site_gradient(model, alpha, minus, cell)
                for i in range(len(gaps)):
                    fdh = (gp[i] - gm[i]) / (2 * step)
                    hscale = max(np.max(np.abs(hess[i][j])), 1.0)
                    assert np.allclose(hess[i][j][:, comp], fdh, atol=1e-5 * hscale)

    # total atomistic energy gradient at a smooth admissible state (site-level
    # white noise would put the stiff bonds deep into the repulsive core)
    lat = chain_lattice(Fraction(1, 8), 2)
    prob = atomistic.EquilibriumProblem(lat, lj)
    x = lat.site_positions()
    u = LatticeField(lat, 0.01 * np.sin(2 * np.pi * x) + 0.005 * np.cos(4 * np.pi * x))
    g = energy_gradient(prob, u)
    # smaller step here: the 1/eps^3 amplification of the LJ third derivative
    # would otherwise leave the oracle's own truncation above the tolerance
    step_u = 2e-6
    for k in range(0, lat.n_sites, 3):
        up, um = u.copy(), u.copy()
        up.values[k, 0] += step_u
        um.values[k, 0] -= step_u
        fd = (atomistic.total_energy(prob, up) - atomistic.total_energy(prob, um)) / (2 * step_u)
        assert fd == pytest.approx(g.values[k, 0] / lat.n_sites, rel=1e-6, abs=1e-10)

    # HQC macro gradient and Hessian
    mesh = fem.build_mesh(1, 4)
    op = hqc.HQCOperator(lj, chain_lattice(Fraction(1, 16), 2), mesh)
    uh = fem.p1_zero_mean(fem.P1Field(mesh, 0.02 * rng.standard_normal((4, 1))))
    gh = op.gradient(uh)
    H = np.asarray(op.hessian(uh).todense())
    for k in range(4):
        up = fem.P1Field(mesh, uh.values.copy())
        um = fem.P1Field(mesh, uh.values.copy())
        up.values[k, 0] += step
        um.values[k, 0] -= step
        fd = (op.energy(up) - op.energy(um)) / (2 * step)
        assert fd == pytest.approx(gh[k, 0], rel=1e-6, abs=1e-9)
        fdh = (op.gradient(up) - op.gradient(um)).ravel() / (2 * step)
        assert np.allclose(H[:, k], fdh, atol=1e-5 * np.max(np.abs(H)))

    # envelope property of the homogenized stress
    density = homog.HomogenizedDensity(lj)
    for F in (0.01, -0.03):
        h = 1e-5
        fd = (density.phi0([[F + h]]) - density.phi0([[F - h]])) / (2 * h)
        assert density.at([[F]]).stress[0, 0, 0] == pytest.approx(fd, rel=1e-6)

    # micro-sensitivity directional check
    from hqclab.network import newton_zero_mean

    system = op.system
    F = np.array([[0.015]])
    chi = newton_zero_mean(system, F=F, tol=1e-14, ref=1.0).w
    sens = hqc.micro_sensitivity(system, chi, F)
    t = 1e-6
    chi_p = newton_zero_mean(system, F=F + t, w0=chi, tol=1e-14, ref=1.0).w
    fd = (chi_p - chi) / t
    assert np.max(np.abs(fd - sens[0, 0])) <= 1e-5 * (1 + np.max(np.abs(sens[0, 0])))

    elapsed = time.time() - t0
    assert elapsed <= 30
    _report(6, "derivative consistency", elapsed, 30)


def test_acceptance_7_small_instance_oracles():
    t0 = time.time()
    rng = np.random.default_rng(7)

    # atomistic equilibrium against a hand-assembled dense solve (<= 64 sites)
    psi = (1.0, 3.0)
    model = LinearSpring1D(psi)
    lat = chain_lattice(Fraction(1, 32), 2)  # 64 sites
    fvals = rng.standard_normal((lat.n_sites, 1))
    fvals -= fvals.mean(axis=0)
    f = LatticeField(lat, fvals)
    prob = atomistic.EquilibriumProblem(lat, model, force=f)
    u = atomistic.solve_equilibrium(prob, tol=1e-12)
    n = lat.n_sites
    eps = lat.eps_float
    K = np.zeros((n, n))
    order = np.argsort(lat.site_positions().ravel())
    for idx in range(n):
        i, j = order[idx], order[(idx + 1) % n]
        k = psi[idx % 2] / eps**2
        K[i, i] += k
        K[j, j] += k
        K[i, j] -= k
        K[j, i] -= k
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = K
    A[:n, n] = A[n, :n] = 1.0
    expected = np.linalg.solve(A, np.concatenate([fvals.ravel(), [0.0]]))[:n]
    assert np.max(np.abs(u.values.ravel() - expected)) <= 1e-10

    # micro corrector against the analytic flux-constant cell solution
    for _ in range(5):
        m = int(rng.integers(2, 5))
        psi_t = tuple(rng.uniform(0.4, 6.0, m))
        F = float(rng.uniform(-2, 2))
        chi = homog.solve_cell_problem(LinearSpring1D(psi_t), [[F]])
        r = 1.0 / m
        c = homog.harmonic_mean(psi_t) * F * r
        for alpha in range(m):
            beta = (alpha + 1) % m
            gap = F * r + chi[beta, 0] - chi[alpha, 0]
            assert abs(psi_t[alpha] * gap - c) <= 1e-12 * (1 + abs(F))

    # HQC stiffness equals the effective-coefficient FEM matrix
    mesh = fem.build_mesh(1, 8)
    lat8 = chain_lattice(Fraction(1, 32), 2)
    op = hqc.HQCOperator(model, lat8, mesh)
    H = np.asarray(op.hessian(fem.P1Field(mesh, np.zeros((8, 1)))).todense())
    K_fem = np.asarray(
        constant_tensor_stiffness(mesh, np.array(homog.harmonic_mean(psi) / 4)).todense()
    )
    assert np.max(np.abs(H - K_fem)) <= 1e-12 * np.max(np.abs(K_fem))

    # shift/corrector bijection residuals
    for model_b, F in ((LinearSpring1D((1.0, 3.0, 0.5)), 0.8), (make_dynamics_model().model, 0.02)):
        system = homog.cell_system(model_b)
        chi = homog.solve_cell_problem(model_b, [[F]])
        q = shifts_from_corrector(chi)
        q_solved = mqc.solve_shift_vectors(model_b, [[F]], guess=q)
        assert np.max(np.abs(q_solved - q)) <= 1e-10
        chi_back = corrector_from_shifts(q, model_b.d)
        res = system.gradient(chi_back, np.array([[F]]))
        assert np.sqrt(np.mean(res**2)) <= 1e-10 * (1 + abs(F))

    elapsed = time.time() - t0
    assert elapsed <= 30
    _report(7, "small-instance oracles", elapsed, 30)


def test_acceptance_8_structural_invariants(tmp_path):
    t0 = time.time()
    rng = np.random.default_rng(8)

    # summation by parts (adjoint offset identity)
    lat = chain_lattice(Fraction(1, 8), 2)
    u = LatticeField(lat, rng.standard_normal((lat.n_sites, 1)))
    v = LatticeField(lat, rng.standard_normal((lat.n_sites, 1)))
    r = Fraction(1, 2)
    lhs = inner_product(discrete_derivative(u, r), v)
    rhs = inner_product(u, discrete_derivative(v, -r))
    assert lhs == pytest.approx(rhs, abs=1e-12)

    # translation invariance of energies
    model = make_dynamics_model().model
    prob = atomistic.EquilibriumProblem(lat, model)
    w = LatticeField(lat, 0.02 * rng.standard_normal((lat.n_sites, 1)))
    shifted = LatticeField(lat, w.values + 0.4)
    assert atomistic.total_energy(prob, w) == pytest.approx(
        atomistic.total_energy(prob, shifted), rel=1e-12
    )

    # zero-mean projection idempotent with tiny residual mean
    p = project_zero_mean(w)
    assert np.max(np.abs(p.values.mean(axis=0))) <= 1e-12 * max(np.max(np.abs(p.values)), 1.0)
    assert np.allclose(project_zero_mean(p).values, p.values)

    # Verlet reversibility and momentum conservation (smooth initial state)
    setup = make_dynamics_model()
    lat_d = chain_lattice(Fraction(1, 32), 2)
    prob_d = atomistic.EquilibriumProblem(lat_d, setup.model, masses=setup.mass_field(lat_d))
    accel = dynamics.atomistic_accel(prob_d)
    u0 = 1e-3 * np.sin(2 * np.pi * lat_d.site_positions())
    state = dynamics.DynamicState(u=u0.copy(), v=np.zeros_like(u0), t=0.0)
    tau = lat_d.eps_float / 40
    momenta = []
    for _ in range(20):
        state = dynamics.verlet_step(state, accel, tau)
        momenta.append(float(np.sum(prob_d.masses[:, None] * state.v)))
    assert np.max(np.abs(np.array(momenta))) <= 1e-12
    back = dynamics.DynamicState(state.u, -state.v, 0.0)
    for _ in range(20):
        back = dynamics.verlet_step(back, accel, tau)
    assert np.max(np.abs(back.u - u0)) <= 1e-10

    # RNG reproducibility: byte-identical CSV for a fixed seed
    cfg = tmp_path / "eq.cfg"
    cfg.write_text("trials_spring = 6\ntrials_lj = 2\ntrials_simple = 1\nseed = 11\n")
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert cli_main(["equivalence", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli_main(["equivalence", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    elapsed = time.time() - t0
    _report(8, "structural invariants", elapsed, 30)
