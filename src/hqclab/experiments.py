"""Experiment drivers: desk-scale reproductions of the convergence studies.

Each driver consumes a flat configuration dictionary, returns the CSV rows
plus a summary (fitted slopes, pass/fail observations), and never aborts on a
per-row solver failure (failed rows are recorded and the run continues).  Any
other exception is a bug and propagates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import atomistic, dynamics, fem, hqc, mqc
from .lattice import LatticeField, chain_lattice, l2_norm
from .network import SolverError
from .potential import LinearSpring1D, PotentialError, make_dynamics_model, make_stochastic_model


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentResult:
    columns: list[str]
    rows: list[list]
    summary: dict = field(default_factory=dict)

    @property
    def failures(self) -> int:
        """Number of rows whose status (the last column) is not ``ok``."""
        return sum(1 for row in self.rows if row[-1] != "ok")


def fit_slope(h_values, errors, lo: int, hi: int) -> float:
    """Least-squares slope of log2(error) against log2(h) over [lo, hi)."""
    h = np.asarray(h_values, dtype=float)[lo:hi]
    e = np.asarray(errors, dtype=float)[lo:hi]
    mask = np.isfinite(e) & (e > 0)
    if mask.sum() < 2:
        return float("nan")
    return float(np.polyfit(np.log2(h[mask]), np.log2(e[mask]), 1)[0])


def _parse_fraction(text: str) -> Fraction:
    return Fraction(text.strip())


def _list_of(parse):
    """Parser of a non-empty comma-separated list of ``parse`` values."""

    def parser(text: str) -> list:
        values = [parse(tok) for tok in text.split(",") if tok.strip()]
        if not values:
            raise ValueError("empty list")
        return values

    return parser


def _positive(parse):
    """Parser of a ``parse`` value that must be positive and finite."""

    def parser(text: str):
        value = parse(text)
        if not 0 < value < np.inf:
            raise ValueError("must be positive and finite")
        return value

    return parser


def _finite(text: str) -> float:
    """Parser of a float that must be finite."""
    if not np.isfinite(value := float(text)):
        raise ValueError("must be finite")
    return value


def _parse_lattice_eps(text: str) -> Fraction:
    eps = _parse_fraction(text)
    if eps <= 0 or (1 / eps).denominator != 1:
        raise ValueError("1/eps must be a positive integer")
    return eps


def _parse_power_of_two(text: str) -> int:
    n = int(text)
    if n < 2 or n & (n - 1):
        raise ValueError("must be a power of two, at least 2")
    return n


_parse_mesh_sizes = _list_of(_positive(_parse_fraction))


def _parse_range(text: str) -> tuple[int, int]:
    lo, hi = text.split(":")
    return int(lo), int(hi)


def read_config(cfg: dict, schema: dict) -> dict:
    """Validate a flat key=value config against defaults plus parsers."""
    out = {}
    unknown = set(cfg) - set(schema)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, (default, parser) in schema.items():
        if key in cfg:
            try:
                out[key] = parser(cfg[key])
            except (ValueError, ZeroDivisionError) as exc:
                raise ConfigError(f"bad value for {key!r}: {cfg[key]!r} ({exc})") from exc
        else:
            out[key] = default
    return out


#: failures a row records as ``failed:<class>``; anything else is a bug and propagates
ROW_ERRORS = (SolverError, PotentialError, np.linalg.LinAlgError)


def _failed(exc: Exception) -> str:
    """Status of a row whose solve raised: names the exception class."""
    return f"failed:{type(exc).__name__}"


def _check_mesh_divides(h_list, cells: Fraction) -> None:
    for h in h_list:
        n = Fraction(1) / h
        if n.denominator != 1 or cells % n != 0:
            raise ConfigError(f"mesh size {h} does not divide the lattice (1/eps = {cells})")


def smooth_force_1d(points: np.ndarray) -> np.ndarray:
    """Zero-mean smooth 1D body force used by the convergence studies."""
    x = points[:, 0]
    vals = np.sin(2 * np.pi * x) + 0.5 * np.sin(4 * np.pi * x + 0.7)
    return vals[:, None]


# ---------------------------------------------------------------- converge-1d

CONVERGE_1D_SCHEMA = {
    "psi": ([1.0, 3.0], _list_of(_positive(float))),
    "eps": (Fraction(1, 4096), _parse_lattice_eps),
    "h_list": ([Fraction(1, 4), Fraction(1, 8), Fraction(1, 16), Fraction(1, 32), Fraction(1, 64)],
               _parse_mesh_sizes),
    "fit_range_h1": ((0, 5), _parse_range),
    "fit_range_l2": ((0, 4), _parse_range),
    "force_scale": (1.0, _finite),
}


def run_converge_1d(cfg: dict) -> ExperimentResult:
    """Static 1D multilattice study: reconstructed H1 error converges first
    order, macro L2 second order until the eps floor, macro H1 stalls."""
    p = read_config(cfg, CONVERGE_1D_SCHEMA)
    psi = tuple(p["psi"])
    model = LinearSpring1D(psi)
    eps = p["eps"]
    _check_mesh_divides(p["h_list"], Fraction(1) / eps)
    lat = chain_lattice(eps, model.m)
    fvals = p["force_scale"] * smooth_force_1d(lat.site_positions())
    fvals -= fvals.mean(axis=0)[None, :]
    f = LatticeField(lat, fvals)
    problem = atomistic.EquilibriumProblem(lat, model, force=f)
    # the representable residual floor scales like eps_mach * psi / eps^2; at
    # eps = 2^-12 that sits near 3e-10, far below the discretization errors
    u_exact = atomistic.solve_equilibrium(problem, tol=1e-9)
    u_norm = l2_norm(u_exact)

    columns = ["psi", "eps", "h", "uhc_err_h1", "uh_err_h1", "uh_err_l2", "status"]
    psi_txt = "|".join(f"{x:g}" for x in psi)

    def one_row(h: Fraction):
        try:
            mesh = fem.build_mesh(1, int(1 / h))
            sol = hqc.solve_hqc(model, lat, mesh, f=f, tol=1e-12)
            recon = hqc.reconstruct(sol.operator, sol.macro)
            _, uhc_h1 = fem.lattice_error(u_exact, recon)
            uh_l2, uh_h1 = fem.lattice_error(u_exact, sol.macro)
            return [psi_txt, str(eps), str(h), uhc_h1, uh_h1, uh_l2, "ok"]
        except ROW_ERRORS as exc:
            return [psi_txt, str(eps), str(h), float("nan"), float("nan"), float("nan"), _failed(exc)]

    rows = [one_row(h) for h in p["h_list"]]
    h_floats = [float(h) for h in p["h_list"]]
    uhc_h1 = [r[3] for r in rows]
    uh_h1 = [r[4] for r in rows]
    uh_l2 = [r[5] for r in rows]
    lo1, hi1 = p["fit_range_h1"]
    lo2, hi2 = p["fit_range_l2"]
    finite_h1 = [e for e in uh_h1 if np.isfinite(e)]
    summary = {
        "slope_uhc_h1": fit_slope(h_floats, uhc_h1, lo1, hi1),
        "slope_uh_l2": fit_slope(h_floats, uh_l2, lo2, hi2),
        "uh_h1_ratio": (max(finite_h1) / min(finite_h1)) if finite_h1 else float("nan"),
        "uh_l2_final_rel": uh_l2[-1] / u_norm if np.isfinite(uh_l2[-1]) else float("nan"),
        "eps": float(eps),
        "u_norm": u_norm,
    }
    return ExperimentResult(columns, rows, summary)


# -------------------------------------------------------------- stochastic-2d

STOCHASTIC_2D_SCHEMA = {
    "n": (128, _parse_power_of_two),
    "seed": (1, int),
    # start where the Cauchy-Born tensor gap dominates the macro error, so the
    # affine-closure curve exhibits its non-convergent floor
    "h_list": ([Fraction(1, 8), Fraction(1, 16), Fraction(1, 32), Fraction(1, 64)],
               _parse_mesh_sizes),
    "n_rep_list": ([8, 32, 128], _list_of(int)),
    "fit_range": ((0, 3), _parse_range),
}


def run_stochastic_2d(cfg: dict) -> ExperimentResult:
    """Random 2D bond network: relative energy error of HQC (second order in h
    for full sampling) against the non-converging affine (Cauchy-Born) closure."""
    p = read_config(cfg, STOCHASTIC_2D_SCHEMA)
    n = p["n"]
    _check_mesh_divides(p["h_list"], Fraction(n))
    for n_rep in p["n_rep_list"]:
        if not 1 <= n_rep <= n:
            raise ConfigError("n_rep must lie between 1 and n")
    lat, model, f = make_stochastic_model(n, p["seed"])
    problem = atomistic.EquilibriumProblem(lat, model, force=f)
    u_exact = atomistic.solve_equilibrium(problem, tol=1e-11)
    e_exact = atomistic.total_energy(problem, u_exact)

    columns = ["n", "seed", "n_rep", "h", "err_hqc", "err_ad", "status"]

    meshes = {h: fem.build_mesh(2, int(1 / h)) for h in p["h_list"]}
    # the body force is global and smooth: pair it exactly with the hats
    # rather than sampling it on the shared subsystem
    loads = {h: fem.load_from_lattice(mesh, f) for h, mesh in meshes.items()}

    def one_row(n_rep: int, h: Fraction):
        mesh, load = meshes[h], loads[h]
        try:
            op = hqc.HQCOperator(model, lat, mesh, n_rep=n_rep)
            sol = op.solve(load=load, tol=1e-10)
            e_hqc = op.energy(sol.macro)
            op_ad = hqc.HQCOperator(model, lat, mesh, n_rep=n_rep, relax=False)
            ad = op_ad.solve(load=load, tol=1e-10)
            e_ad = op_ad.energy(ad.macro)
            err_hqc = abs(e_hqc - e_exact) / abs(e_exact)
            err_ad = abs(e_ad - e_exact) / abs(e_exact)
            return [n, p["seed"], n_rep, str(h), err_hqc, err_ad, "ok"]
        except ROW_ERRORS as exc:
            return [n, p["seed"], n_rep, str(h), float("nan"), float("nan"), _failed(exc)]

    rows = [one_row(n_rep, h) for n_rep in p["n_rep_list"] for h in p["h_list"]]

    h_floats = [float(h) for h in p["h_list"]]
    by_rep = {n_rep: [r for r in rows if r[2] == n_rep] for n_rep in p["n_rep_list"]}
    lo, hi = p["fit_range"]
    summary = {"n": n, "e_exact": e_exact}
    full = by_rep.get(n)
    if full:
        errs = [r[4] for r in full]
        ad_errs = [r[5] for r in full]
        summary["slope_hqc_full"] = fit_slope(h_floats, errs, lo, hi)
        finite_ad = [e for e in ad_errs if np.isfinite(e)]
        summary["ad_min_over_first"] = (min(finite_ad) / finite_ad[0]) if finite_ad else float("nan")
        for n_rep in p["n_rep_list"]:
            if n_rep == n:
                continue
            errs_rep = [r[4] for r in by_rep[n_rep]]
            summary[f"floor_ratio_nrep_{n_rep}"] = (
                errs_rep[-1] / errs[-1] if np.isfinite(errs_rep[-1]) else float("nan")
            )
    return ExperimentResult(columns, rows, summary)


# --------------------------------------------------------------- dynamics-1d

DYNAMICS_1D_SCHEMA = {
    "n_atoms": (1024, _parse_power_of_two),
    "h_list": ([Fraction(1, 4), Fraction(1, 8), Fraction(1, 16), Fraction(1, 32)],
               _parse_mesh_sizes),
    "t_final": (Fraction(1, 20), _parse_fraction),
    "amplitude": (0.01, _positive(float)),
}


def run_dynamics_1d(cfg: dict) -> ExperimentResult:
    """Slow dynamics of the two-species LJ chain: HQC trajectories against the
    atomistic reference, with tau = h/20 (macro) and tau = eps/20 (reference)."""
    p = read_config(cfg, DYNAMICS_1D_SCHEMA)
    n_atoms = p["n_atoms"]
    setup = make_dynamics_model()
    model = setup.model
    eps = Fraction(model.m, n_atoms)
    if n_atoms // model.m < 3:
        raise ConfigError(f"n_atoms must be at least {3 * model.m}: the slowest Bloch mode "
                          "needs a chain of at least 3 cells")
    _check_mesh_divides(p["h_list"], Fraction(1) / eps)
    # a whole number of macro steps h/20 is one of reference steps too, which divide h
    if not all(q > 0 and q.denominator == 1 for q in (20 * p["t_final"] / h for h in p["h_list"])):
        raise ConfigError(f"t_final = {p['t_final']} must be a positive whole number of macro "
                          "steps h/20 for every h")
    lat = chain_lattice(eps, model.m)
    masses = setup.mass_field(lat)
    problem = atomistic.EquilibriumProblem(lat, model, masses=masses)
    u0 = dynamics.initial_condition(problem, amplitude=p["amplitude"])
    t_final = float(p["t_final"])
    # reference step: one twentieth of the finest inter-site spacing; the
    # Bravais parameter would put Verlet past its stability limit (the optical
    # band edge sits at omega*tau ~ 2 there)
    spacing = eps / model.m
    tau_ref = float(spacing) / 20.0

    h_list = sorted(p["h_list"], reverse=True)
    ratios = [int(h / spacing) for h in h_list]
    base = min(ratios)
    traj_ref = dynamics.run_atomistic_dynamics(problem, u0, t_final, tau_ref, sample_every=base)
    drift = dynamics.energy_drift(traj_ref)

    columns = ["n_atoms", "h", "tau", "linf_l2", "l2_h1", "status"]

    def one_row(h: Fraction):
        tau_h = float(h) / 20.0
        try:
            mesh = fem.build_mesh(1, int(1 / h))
            traj = dynamics.run_hqc_dynamics(
                model, lat, mesh, setup.species_masses, u0, t_final, tau_h
            )
            stride = int(h / spacing) // base
            idx = np.arange(len(traj.times)) * stride
            ref_fields = [LatticeField(lat, traj_ref.displacements[i]) for i in idx]
            linf_l2, l2_h1 = dynamics.trajectory_error(traj.times, ref_fields, traj.reconstructions)
            return [n_atoms, str(h), f"{tau_h:.17g}", linf_l2, l2_h1, "ok"]
        except ROW_ERRORS as exc:
            return [n_atoms, str(h), f"{tau_h:.17g}", float("nan"), float("nan"), _failed(exc)]

    rows = [one_row(h) for h in h_list]
    h_floats = [float(h) for h in h_list]
    summary = {
        "slope_linf_l2": fit_slope(h_floats, [r[3] for r in rows], 0, len(rows)),
        "slope_l2_h1": fit_slope(h_floats, [r[4] for r in rows], 0, len(rows)),
        "ref_energy_drift": drift,
        "eps": float(eps),
    }
    return ExperimentResult(columns, rows, summary)


# --------------------------------------------------------------- equivalence

EQUIVALENCE_SCHEMA = {
    "seed": (0, int),
    "trials_spring": (36, int),
    "trials_lj": (15, int),
    "trials_simple": (4, int),
    "mesh_n": (4, _positive(int)),
    "eps": (Fraction(1, 32), _parse_lattice_eps),
    "tol_spring": (1e-10, _positive(float)),
    "tol_lj": (1e-9, _positive(float)),
    "tol_simple": (1e-12, _positive(float)),
}


def run_equivalence(cfg: dict) -> ExperimentResult:
    """Three formulations of the same coarse-grained energy agree on random
    piecewise-linear macro fields."""
    p = read_config(cfg, EQUIVALENCE_SCHEMA)
    eps = p["eps"]
    _check_mesh_divides([Fraction(1, p["mesh_n"])], 1 / eps)
    rng = np.random.Generator(np.random.Philox(p["seed"]))
    mesh = fem.build_mesh(1, p["mesh_n"])
    trials = []
    for k in range(p["trials_spring"]):
        m = (2, 3, 4)[k % 3]
        trials.append(("spring", m, rng.integers(2**63)))
    for _ in range(p["trials_lj"]):
        trials.append(("lj", 2, rng.integers(2**63)))
    for _ in range(p["trials_simple"]):
        trials.append(("spring", 1, rng.integers(2**63)))

    columns = ["trial", "model", "m", "e_hqc", "e_fem", "e_mqc", "max_gap", "tol", "status"]
    rows = []
    worst = 0.0
    all_pass = True
    lj_model = make_dynamics_model().model
    for k, (kind, m, seed) in enumerate(trials):
        trial_rng = np.random.Generator(np.random.Philox(int(seed)))
        if kind == "spring":
            psi = tuple(trial_rng.uniform(0.5, 5.0, size=max(m, 1)))
            model = LinearSpring1D(psi)
            scale = 0.3
            tol = p["tol_spring"] if m > 1 else p["tol_simple"]
        else:
            model = lj_model
            scale = 0.02
            tol = p["tol_lj"]
        lat = chain_lattice(eps, model.m)
        nodal = scale * trial_rng.standard_normal((mesh.n_vertices, 1))
        uh = fem.p1_zero_mean(fem.P1Field(mesh, nodal))
        try:
            rep = mqc.equivalence_report(model, lat, mesh, uh)
            gap = rep.max_gap
            bound = tol * (1.0 + abs(rep.e_hqc))
            ok = gap <= bound
            worst = max(worst, gap / (1.0 + abs(rep.e_hqc)))
            all_pass &= ok
            rows.append([k, kind, model.m, rep.e_hqc, rep.e_fem, rep.e_mqc, gap, tol, "ok"])
        except ROW_ERRORS as exc:
            all_pass = False
            nan = float("nan")
            rows.append([k, kind, model.m, nan, nan, nan, nan, tol, _failed(exc)])
    summary = {
        "n_trials": len(trials),
        "worst_relative_gap": worst,
        "all_within_tolerance": all_pass,
    }
    return ExperimentResult(columns, rows, summary)
