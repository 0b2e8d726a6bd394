"""Slow (zero-temperature) dynamics: velocity Verlet for the full atomistic
chain and for the HQC macro discretization with lumped masses.

The atomistic evolution solves M(x) u''(x) = -dE(u)(x) with the Riesz gradient
of the interaction energy; the macro evolution uses the averaged mass density
M0 = <M> lumped at the mesh nodes and the HQC nodal residual as the force.
The micro problems carry no inertia: at every step each corrector is the
relaxed one of the current macro field, solved from the zero guess.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atomistic import EquilibriumProblem, energy_gradient, slowest_eigenmode, solve_equilibrium, total_energy
from .fem import MacroMesh, P1Field, p1_interpolate_lattice
from .hqc import HQCOperator, reconstruct
from .lattice import LatticeField, Multilattice, discrete_derivative, discrete_norms, nearest_neighbor_offsets


@dataclass
class DynamicState:
    """Displacement, velocity, and time of an evolving system; ``a`` is the
    acceleration at ``u`` when it is already known."""

    u: np.ndarray
    v: np.ndarray
    t: float
    a: np.ndarray | None = None


def initial_condition(problem: EquilibriumProblem, amplitude: float = 0.01) -> LatticeField:
    """Equilibrium plus a kick along the slowest vibration mode: the lowest
    Bloch mode, taken as the M-projection of the cosine wave cos 2 pi x onto
    its eigenspace (see ``slowest_eigenmode``), scaled so the mode's largest
    nearest-neighbor difference quotient equals ``amplitude``."""
    u_eq = solve_equilibrium(problem)
    mode, _ = slowest_eigenmode(problem, u_eq)
    dmax = 0.0
    for r in nearest_neighbor_offsets(problem.lattice):
        du = discrete_derivative(mode, r)
        dmax = max(dmax, float(np.max(np.abs(du.values))))
    return LatticeField(problem.lattice, u_eq.values + amplitude * mode.values / dmax)


def verlet_step(state: DynamicState, accel, tau: float) -> DynamicState:
    """One velocity-Verlet step: half kick, drift, force refresh, half kick.

    The returned state carries its acceleration, so a chain of steps
    evaluates the force once per step.
    """
    a0 = accel(state.u) if state.a is None else state.a
    v_half = state.v + 0.5 * tau * a0
    u_new = state.u + tau * v_half
    a1 = accel(u_new)
    v_new = v_half + 0.5 * tau * a1
    return DynamicState(u=u_new, v=v_new, t=state.t + tau, a=a1)


@dataclass
class Trajectory:
    times: np.ndarray
    displacements: list[np.ndarray]
    velocities: list[np.ndarray]
    energies: np.ndarray


def atomistic_accel(problem: EquilibriumProblem):
    masses = problem.masses

    def accel(u: np.ndarray) -> np.ndarray:
        return -energy_gradient(problem, LatticeField(problem.lattice, u)).values / masses[:, None]

    return accel


def atomistic_total_energy(problem: EquilibriumProblem, state: DynamicState) -> float:
    """Kinetic plus interaction energy in the site-averaged convention."""
    kinetic = 0.5 * float(np.mean(problem.masses * np.sum(state.v**2, axis=1)))
    return kinetic + total_energy(problem, LatticeField(problem.lattice, state.u))


def _whole_steps(t_final: float, tau: float) -> int:
    """The number of steps tau that make up t_final; raises ValueError unless
    t_final / tau is within 1e-9 relative of a positive integer."""
    ratio = t_final / tau
    n_steps = int(round(ratio))
    if n_steps < 1 or abs(ratio - n_steps) > 1e-9 * n_steps:
        raise ValueError(f"t_final = {t_final:g} is not a positive whole number of steps tau = {tau:g}")
    return n_steps


def run_atomistic_dynamics(
    problem: EquilibriumProblem,
    u0: LatticeField,
    t_final: float,
    tau: float,
    sample_every: int = 1,
) -> Trajectory:
    """Verlet evolution from rest; samples every ``sample_every``-th step and
    the last one.

    Blow-up guard (instability): every step checks that its new acceleration
    is finite, and every recorded state checks its total energy, which must be
    finite and within 1e3 * max(|E0|, 1) of the initial E0. Either failure
    raises RuntimeError at the step where it happens, so no returned sample
    escapes the energy check. The energy is evaluated at recorded states only.
    Raises ValueError for ``sample_every < 1`` and unless t_final is a whole
    number of steps tau.
    """
    if sample_every < 1:
        raise ValueError(f"sample_every must be at least 1, got {sample_every}")
    n_steps = _whole_steps(t_final, tau)
    accel = atomistic_accel(problem)
    state = DynamicState(u=u0.values.copy(), v=np.zeros_like(u0.values), t=0.0)
    e0 = atomistic_total_energy(problem, state)
    scale = max(abs(e0), 1.0)
    times = [0.0]
    disp = [state.u.copy()]
    vel = [state.v.copy()]
    energies = [e0]
    for k in range(1, n_steps + 1):
        state = verlet_step(state, accel, tau)
        if k % sample_every and k < n_steps:
            if not np.isfinite(state.a).all():
                raise RuntimeError(f"atomistic dynamics blew up at t = {state.t:.6g}")
            continue
        e = atomistic_total_energy(problem, state)
        if not np.isfinite(e) or abs(e - e0) > 1e3 * scale:
            raise RuntimeError(f"atomistic dynamics blew up at t = {state.t:.6g}")
        times.append(state.t)
        disp.append(state.u.copy())
        vel.append(state.v.copy())
        energies.append(e)
    return Trajectory(np.array(times), disp, vel, np.array(energies))


def energy_drift(traj: Trajectory) -> float:
    e0 = traj.energies[0]
    return float(np.max(np.abs(traj.energies - e0)) / max(abs(e0), 1.0))


@dataclass
class MacroTrajectory:
    times: np.ndarray
    reconstructions: list[LatticeField]


def lumped_node_masses(mesh: MacroMesh, mass_density: float) -> np.ndarray:
    """Diagonal macro mass: averaged density times the nodal share of the
    domain, which on a uniform mesh is the same 1/n_vertices for every vertex."""
    return np.full(mesh.n_vertices, mass_density / mesh.n_vertices)


def run_hqc_dynamics(
    model,
    lattice: Multilattice,
    mesh: MacroMesh,
    species_masses,
    u0_lattice: LatticeField,
    t_final: float,
    tau: float,
) -> MacroTrajectory:
    """HQC-discretized slow dynamics with lumped macro masses.

    The initial macro displacement interpolates the atomistic initial state at
    the mesh vertices; initial velocity is zero.  Reconstructions are stored at
    every macro step.  Raises ValueError unless t_final is a whole number of
    steps tau.
    """
    n_steps = _whole_steps(t_final, tau)
    op = HQCOperator(model, lattice, mesh)
    m0 = float(np.mean(species_masses))
    node_mass = lumped_node_masses(mesh, m0)
    u_init = p1_interpolate_lattice(mesh, u0_lattice)

    def accel(u: np.ndarray) -> np.ndarray:
        g = op.gradient(P1Field(mesh, u))
        return -g / node_mass[:, None]

    state = DynamicState(u=u_init.values.copy(), v=np.zeros_like(u_init.values), t=0.0)
    times = [0.0]
    recon = [reconstruct(op, P1Field(mesh, state.u))]
    for _ in range(n_steps):
        state = verlet_step(state, accel, tau)
        times.append(state.t)
        recon.append(reconstruct(op, P1Field(mesh, state.u)))
    return MacroTrajectory(np.array(times), recon)


def trajectory_error(
    times: np.ndarray,
    reference: list[LatticeField],
    approx: list[LatticeField],
) -> tuple[float, float]:
    """Space-time error norms between two sampled lattice trajectories.

    Returns (max-over-time L2 error, trapezoid-in-time H1 error); a single
    common sample reduces to the static (L2, H1) pair.
    """
    if len(reference) != len(approx) or len(reference) != len(times):
        raise ValueError("trajectories must share their sample times")
    l2s, h1s = [], []
    for ref, app in zip(reference, approx):
        diff = LatticeField(ref.lattice, app.values - ref.values)
        l2, h1 = discrete_norms(diff)
        l2s.append(l2)
        h1s.append(h1)
    linf_l2 = float(np.max(l2s))
    if len(times) == 1:
        return linf_l2, float(h1s[0])
    l2_h1 = float(np.sqrt(np.trapezoid(np.asarray(h1s) ** 2, np.asarray(times))))
    return linf_l2, l2_h1
