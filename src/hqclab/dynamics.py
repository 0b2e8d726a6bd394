"""Slow (zero-temperature) dynamics: velocity Verlet for the full atomistic
chain and for the HQC macro discretization with lumped masses.

The atomistic evolution solves M(x) u''(x) = -dE(u)(x) with the Riesz gradient
of the interaction energy; the macro evolution uses the averaged mass density
M0 = <M> lumped at the mesh nodes and the HQC nodal residual as the force.
The micro problems carry no inertia: at every step each corrector is the
relaxed one of the current macro field, solved from the zero guess.  Every
``accel`` returns the acceleration and what else its evaluation made (the
HQC ``DensityState`` of the macro field, None for the chain), so the force,
the energy guard and the reconstruction of a state share one corrector
solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .atomistic import EquilibriumProblem, slowest_eigenmode, solve_equilibrium, total_energy
from .fem import MacroMesh, P1Field, all_element_gradients, nodal_forces, p1_interpolate_lattice
from .hqc import DensityState, HQCOperator, reconstruct
from .lattice import (LatticeField, Multilattice, discrete_derivative, discrete_norms, nearest_neighbor_offsets,
                      neighbor_sites)
from .network import SolverError


@dataclass
class DynamicState:
    """Displacement, velocity, and time of an evolving system; ``a`` is the
    acceleration at ``u`` when it is already known, and ``micro`` what else
    its evaluation returned (the HQC ``DensityState`` at ``u``)."""

    u: np.ndarray
    v: np.ndarray
    t: float
    a: np.ndarray | None = None
    micro: object = None


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

    ``accel(u)`` returns the pair (acceleration, micro).  The returned state
    carries both, so a chain of steps evaluates the force once per step.
    """
    a0 = accel(state.u)[0] if state.a is None else state.a
    v_half = state.v + 0.5 * tau * a0
    u_new = state.u + tau * v_half
    a1, micro = accel(u_new)
    v_new = v_half + 0.5 * tau * a1
    return DynamicState(u=u_new, v=v_new, t=state.t + tau, a=a1, micro=micro)


@dataclass
class Trajectory:
    times: np.ndarray
    displacements: list[np.ndarray]
    velocities: list[np.ndarray]
    energies: np.ndarray


def atomistic_accel(problem: EquilibriumProblem):
    """u -> (-M^-1 dE(u), None): the Riesz gradient of the interaction energy
    (the system's gradient at u / eps, divided by eps) per unit mass."""
    system, eps, masses = problem.system, problem.lattice.eps_float, problem.masses[:, None]

    def accel(u: np.ndarray) -> tuple[np.ndarray, None]:
        return -(system.gradient(u / eps) / eps) / masses, None

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


def evolve(accel, energy, u0: np.ndarray, t_final: float, tau: float, sample_every: int, record):
    """Velocity Verlet from rest at ``u0`` over t_final in steps tau: the
    list of ``record(state)`` at t = 0, at every ``sample_every``-th step and
    at the last one, and the array of ``energy(state)`` at the same states.
    Every state carries its acceleration, so ``accel`` runs once per state.

    Blow-up guard (instability): raises SolverError at the first step whose
    acceleration is not finite, and at the first recorded state whose energy
    is not finite or not within 1e3 * max(|E0|, 1) of the initial E0; the
    energy is evaluated at recorded states only. Raises ValueError for
    ``sample_every < 1`` and unless t_final is a whole number of steps tau.
    """
    if sample_every < 1:
        raise ValueError(f"sample_every must be at least 1, got {sample_every}")
    n_steps = _whole_steps(t_final, tau)
    state = DynamicState(u0, np.zeros_like(u0), 0.0, *accel(u0))
    records, energies = [record(state)], [energy(state)]
    bound = 1e3 * max(abs(energies[0]), 1.0)
    for k in range(1, n_steps + 1):
        state = verlet_step(state, accel, tau)
        sampled = k % sample_every == 0 or k == n_steps
        if not np.isfinite(state.a).all() or (sampled and not abs((e := energy(state)) - energies[0]) <= bound):
            raise SolverError(f"dynamics blew up at t = {state.t:.6g}")
        if sampled:
            energies.append(e)
            records.append(record(state))
    return records, np.array(energies)


def run_atomistic_dynamics(problem: EquilibriumProblem, u0: LatticeField, t_final: float, tau: float,
                           sample_every: int = 1) -> Trajectory:
    """``evolve`` of the atomistic chain with its total energy, sampled every
    ``sample_every``-th step and at the last one."""
    records, energies = evolve(atomistic_accel(problem), partial(atomistic_total_energy, problem), u0.values,
                               t_final, tau, sample_every, lambda s: (s.t, s.u.copy(), s.v.copy()))
    times, disp, vel = zip(*records)
    return Trajectory(np.array(times), list(disp), list(vel), energies)


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


def run_hqc_dynamics(model, lattice: Multilattice, mesh: MacroMesh, species_masses, u0_lattice: LatticeField,
                     t_final: float, tau: float) -> MacroTrajectory:
    """HQC-discretized slow dynamics with lumped macro masses: ``evolve``
    with the reconstruction of every macro step, guarded by the macro energy
    (lumped kinetic energy plus the HQC macro energy).  The force, the energy
    and the reconstruction of a state read its one ``HQCOperator.at`` state.

    The initial macro displacement interpolates the atomistic initial state at
    the mesh vertices; initial velocity is zero.
    """
    op = HQCOperator(model, lattice, mesh)
    node_mass = lumped_node_masses(mesh, float(np.mean(species_masses)))

    def accel(u: np.ndarray) -> tuple[np.ndarray, DensityState]:
        micro = op.at(all_element_gradients(P1Field(mesh, u)))
        return -nodal_forces(mesh, micro.stress) / node_mass[:, None], micro

    def energy(state: DynamicState) -> float:
        return 0.5 * float(node_mass @ np.sum(state.v**2, axis=1)) + float(mesh.volumes @ state.micro.phi)

    def record(state: DynamicState):
        return state.t, reconstruct(op, P1Field(mesh, state.u), state.micro)

    u0 = p1_interpolate_lattice(mesh, u0_lattice).values
    times, recon = zip(*evolve(accel, energy, u0, t_final, tau, 1, record)[0])
    return MacroTrajectory(np.array(times), list(recon))


def trajectory_error(
    times: np.ndarray,
    reference: list[LatticeField],
    approx: list[LatticeField],
) -> tuple[float, float]:
    """Space-time error norms between two sampled lattice trajectories on
    one lattice, whose neighbor index is resolved once for all samples; every
    sample of both must stand on that lattice.

    Returns (max-over-time L2 error, trapezoid-in-time H1 error); a single
    common sample reduces to the static (L2, H1) pair.
    """
    if not 0 < len(reference) == len(approx) == len(times):
        raise ValueError("trajectories must share their sample times, at least one")
    lat = reference[0].lattice
    if any(u.lattice is not lat for u in (*reference, *approx)):
        raise ValueError("the samples of both trajectories must share one lattice")
    neighbors = [neighbor_sites(lat, r) for r in nearest_neighbor_offsets(lat)]
    l2s, h1s = [], []
    for ref, app in zip(reference, approx):
        l2, h1 = discrete_norms(LatticeField(lat, app.values - ref.values), neighbors)
        l2s.append(l2)
        h1s.append(h1)
    linf_l2 = float(np.max(l2s))
    if len(times) == 1:
        return linf_l2, float(h1s[0])
    l2_h1 = float(np.sqrt(np.trapezoid(np.asarray(h1s) ** 2, np.asarray(times))))
    return linf_l2, l2_h1
