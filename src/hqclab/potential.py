"""Site interaction potentials with analytic first and second derivatives.

Three material models are provided:

* ``LinearSpring1D``   -- nearest-neighbor quadratic springs on a 1D chain
  with m species per period, V(g) = psi * g^2 / 2 per bond.
* ``LennardJones1D``   -- finite-range Lennard-Jones chain with per-species
  strength/equilibrium-distance parameters, one bond per atom pair.
* ``RandomBond2D``     -- 2D quadratic bond network with per-site random bond
  strengths on the offsets (1,0), (0,1), (1,1), (-1,1).

All models are pairwise: the site energy is a sum over the neighborhood of
per-bond terms, each a function of the single gap D_r u.  The LJ chain lists
each atom pair once, from its left end, with both ends' terms on that bond, so
its split of the energy into site energies is bookkeeping: totals, forces and
stresses are those of one term per directed bond.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .lattice import LatticeField, Multilattice, NeighborOffset, cell_index, square_lattice, unit_cell


class PotentialError(ValueError):
    """Invalid model parameters or inadmissible bond configuration."""


def energies_or_inf(energy, *stacks) -> np.ndarray:
    """``energy(*stacks)``, one value per entry of the stacked arguments; an
    entry whose bonds collapse (PotentialError) reads inf."""
    try:
        return np.asarray(energy(*stacks), dtype=float)
    except PotentialError:
        out = np.full(len(stacks[0]), np.inf)
        for t in range(len(out)):
            with contextlib.suppress(PotentialError):
                out[t] = energy(*(s[t:t + 1] for s in stacks))[0]
        return out


# ------------------------------------------------------------------- bond laws
#
# A law evaluates gaps of shape (..., n_bonds, d) against bond vectors
# (n_bonds, d); its parameters are scalars or per-bond arrays (n_bonds,) that
# broadcast over any leading axes.
#
# ``Law.stack(laws, counts)`` merges laws of one class into a single law in
# which law k applies to the next counts[k] bonds.  Every per-bond value equals
# that of the law it came from, so a system evaluates all its bonds in one call
# instead of one call per bond class.


def _per_bond(laws: Sequence, counts: Sequence[int], name: str) -> np.ndarray:
    """Parameter ``name`` of law k repeated over its counts[k] bonds, concatenated."""
    return np.concatenate([np.broadcast_to(getattr(law, name), (n,))
                           for law, n in zip(laws, counts)])


class SpringLaw:
    """Quadratic bond energy psi * |g|^2 / 2 with per-bond coefficient psi.

    Its stiffness is psi I, and ``scalar_hess`` gives the scalar psi; a law
    without ``scalar_hess`` has a general d x d stiffness."""

    is_quadratic = True

    def __init__(self, psi: np.ndarray) -> None:
        self.psi = np.asarray(psi, dtype=float)

    @classmethod
    def stack(cls, laws: Sequence["SpringLaw"], counts: Sequence[int]) -> "SpringLaw":
        return cls(_per_bond(laws, counts, "psi"))

    def energy(self, gaps: np.ndarray, rvec: np.ndarray) -> np.ndarray:
        return 0.5 * self.psi * np.sum(gaps**2, axis=-1)

    def grad(self, gaps: np.ndarray, rvec: np.ndarray) -> np.ndarray:
        return self.psi[..., None] * gaps

    def hess(self, gaps: np.ndarray, rvec: np.ndarray) -> np.ndarray:
        d = gaps.shape[-1]
        out = np.zeros(gaps.shape[:-1] + (d, d))
        out[...] = np.eye(d)
        return self.psi[..., None, None] * out

    def scalar_hess(self, gaps: np.ndarray, rvec: np.ndarray) -> np.ndarray:
        """The scalar c of phi'' = c I per bond, shape gaps.shape[:-1]."""
        return self.psi * np.ones(gaps.shape[:-1])


class LennardJonesLaw:
    """Bond energy a12 b^-12 - 2 a6 b^-6 with b = scale * |r + g|.

    One LJ term s (-2 (l/b)^6 + (l/b)^12) has a6 = s l^6 and a12 = s l^12, so
    a sum of terms on one bond is the law with the summed coefficients.
    ``scale`` converts the lattice-unit bond vector to the units in which the
    equilibrium distances l are expressed (the finest inter-site spacing for a
    chain with m species, so the nearest-neighbor bond has b = 1).  Energy,
    force and stiffness are polynomials in q = 1/b^2: no square root or power.
    """

    is_quadratic = False

    def __init__(self, a6: np.ndarray, a12: np.ndarray, scale: float = 1.0) -> None:
        self.a6 = np.asarray(a6, dtype=float)
        self.a12 = np.asarray(a12, dtype=float)
        self.scale = float(scale)

    @classmethod
    def stack(cls, laws: Sequence["LennardJonesLaw"], counts: Sequence[int]) -> "LennardJonesLaw":
        scales = {law.scale for law in laws}
        if len(scales) != 1:
            raise PotentialError("stacked LJ laws must share one length scale")
        return cls(_per_bond(laws, counts, "a6"), _per_bond(laws, counts, "a12"), scales.pop())

    def _inverse_square(self, gaps: np.ndarray, rvec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Scaled bond vectors scale * (r + g) and q = 1/b^2 per bond."""
        vec = self.scale * (rvec + gaps)
        b2 = np.sum(vec * vec, axis=-1)
        if np.any(b2 <= 0.0):
            raise PotentialError("bond length collapsed to zero")
        return vec, 1.0 / b2

    def energy(self, gaps: np.ndarray, rvec: np.ndarray) -> np.ndarray:
        _, q = self._inverse_square(gaps, rvec)
        q3 = q * q * q
        return q3 * (self.a12 * q3 - 2.0 * self.a6)

    def grad(self, gaps: np.ndarray, rvec: np.ndarray) -> np.ndarray:
        vec, q = self._inverse_square(gaps, rvec)
        q3 = q * q * q
        # d/dg phi(|scale*(r+g)|) = scale * (phi'(b)/b) * scale*(r+g), phi'/b = 12 q^4 (a6 - a12 q^3)
        return (12.0 * self.scale * q3 * q * (self.a6 - self.a12 * q3))[..., None] * vec

    def hess(self, gaps: np.ndarray, rvec: np.ndarray) -> np.ndarray:
        vec, q = self._inverse_square(gaps, rvec)
        q3 = q * q * q
        q4 = q3 * q
        dphi_b = 12.0 * q4 * (self.a6 - self.a12 * q3)              # phi'(b) / b
        d2phi = q4 * (156.0 * self.a12 * q3 - 84.0 * self.a6)        # phi''(b)
        s2 = self.scale**2
        vv = vec[..., :, None] * vec[..., None, :]
        # scale^2 [phi'' n n^T + (phi'/b)(I - n n^T)] with n n^T = q vec vec^T
        radial = (s2 * q * (d2phi - dphi_b))[..., None, None] * vv
        return radial + (s2 * dphi_b)[..., None, None] * np.eye(vec.shape[-1])


# ----------------------------------------------------------------- bond specs


@dataclass(frozen=True)
class BondSpec:
    """One bond class of a species: an offset plus its (vectorized) bond law."""

    offset: NeighborOffset
    law: object


class InteractionModel:
    """Base class: species-resolved pairwise site potentials.

    Concrete models define ``bond_specs(alpha, cells)``: the interaction
    neighborhood of species alpha together with one bond law per offset, whose
    parameters may vary over ``cells`` (multi-indices (n_cells, d); None: the
    origin).  A model on a grid of its own takes a smaller lattice as its
    corner subgrid and refuses cells off it.  The site energy is the sum of the
    per-bond energies over the neighborhood; gradients and Hessians follow bond
    by bond (the Hessian is block diagonal in the offsets for pairwise
    interactions).  Whether a model is quadratic is a property of its bond laws
    (``is_quadratic`` of the law class), not of the model.
    """

    d: int
    m: int

    def shifts(self) -> list:
        raise NotImplementedError

    def bond_specs(self, alpha: int, cells=None) -> list[BondSpec]:
        raise NotImplementedError


class LinearSpring1D(InteractionModel):
    """1D chain of ideal springs, V(D_r u; x) = psi(x) (D_r u)^2 / 2, r = 1/m.

    ``psi[alpha]`` is the coefficient of the bond owned by species alpha (the
    bond from the site at eps*alpha/m to the next site to the right).
    """

    d = 1

    def __init__(self, psi: Sequence[float]) -> None:
        self.psi = tuple(float(p) for p in psi)
        if any(p <= 0 for p in self.psi):
            raise PotentialError("spring coefficients must be positive")
        self.m = len(self.psi)
        cell = unit_cell(1, self.shifts())
        self._specs = [
            [BondSpec(cell.resolve_offset(alpha, Fraction(1, self.m)), SpringLaw(np.array(self.psi[alpha])))]
            for alpha in range(self.m)
        ]

    def shifts(self) -> list:
        return [(Fraction(k, self.m),) for k in range(self.m)]

    def bond_specs(self, alpha: int, cells=None) -> list[BondSpec]:
        return self._specs[alpha]


@dataclass(frozen=True)
class LennardJonesParams:
    """Per-species Lennard-Jones parameters and the cutoff radius (lattice units)."""

    s: tuple[float, ...]
    ell: tuple[float, ...]
    cutoff: float

    def __post_init__(self) -> None:
        if any(x <= 0 for x in self.s) or any(x <= 0 for x in self.ell):
            raise PotentialError("LJ strength and equilibrium distance must be positive")
        if self.cutoff < 1:
            raise PotentialError("cutoff must be at least one lattice unit")


class LennardJones1D(InteractionModel):
    """Finite-range LJ chain with m species at the uniform shifts k/m.

    Every site of species alpha has the LJ term s_alpha (-2 (ell_alpha/b)^6 +
    (ell_alpha/b)^12) on each neighbor within the cutoff.  Each atom pair is
    one bond, listed by its left end (offsets r > 0 only), whose law carries
    both ends' terms: own(alpha) + own(beta), beta the target species.  The
    reversed bond has the same length, so energy, forces, stresses and
    Hessian are those of one term per directed bond; only the split into site
    energies differs.  Bond lengths are measured in units of the finest
    inter-site spacing eps/m, so the nearest neighbor sits at b = 1 in the
    undeformed state; the cutoff is expressed in lattice units.
    """

    d = 1

    def __init__(self, params: LennardJonesParams) -> None:
        self.params = params
        self.m = len(params.s)
        if len(params.ell) != self.m:
            raise PotentialError("s and ell must have one entry per species")
        cell = unit_cell(1, self.shifts())
        count = int(Fraction(params.cutoff).limit_denominator(10**6) * self.m)   # offsets k/m within it
        s, ell = np.array(params.s), np.array(params.ell)
        a6, a12 = s * ell**6, s * ell**12
        self._specs = []
        for alpha in range(self.m):
            offsets = [cell.resolve_offset(alpha, Fraction(k, self.m)) for k in range(1, count + 1)]
            self._specs.append([BondSpec(off, LennardJonesLaw(a6[alpha] + a6[off.species_target],
                                                              a12[alpha] + a12[off.species_target],
                                                              scale=float(self.m)))
                                for off in offsets])

    def shifts(self) -> list:
        return [(Fraction(k, self.m),) for k in range(self.m)]

    def bond_specs(self, alpha: int, cells=None) -> list[BondSpec]:
        return self._specs[alpha]


STOCHASTIC_OFFSETS = ((1, 0), (0, 1), (1, 1), (-1, 1))
AXIS_BOND_RANGE = (0.5, 10.0)
DIAGONAL_BOND_RANGE = (0.1, 5.0)


class RandomBond2D(InteractionModel):
    """2D quadratic bond network with per-site random strengths.

    Axis bonds (1,0), (0,1) draw uniformly from [0.5, 10], diagonal bonds
    (1,1), (-1,1) from [0.1, 5].  The strength field regenerates bit-identically
    from ``seed``; the stream order is site-major, then offset.  ``bond_specs``
    reads cell multi-indices on this n x n grid: a smaller lattice (an HQC
    sampling subgrid) takes its corner subgrid, a larger one is refused.
    """

    d = 2
    m = 1

    def __init__(self, n: int, seed: int) -> None:
        if n < 2:
            raise PotentialError("grid size must be at least 2")
        self.n = int(n)
        self.seed = int(seed)
        rng = np.random.Generator(np.random.Philox(self.seed))
        raw = rng.uniform(0.0, 1.0, size=(self.n * self.n, 4))
        lo = np.array([AXIS_BOND_RANGE[0]] * 2 + [DIAGONAL_BOND_RANGE[0]] * 2)
        hi = np.array([AXIS_BOND_RANGE[1]] * 2 + [DIAGONAL_BOND_RANGE[1]] * 2)
        self.psi = lo + (hi - lo) * raw  # (n_cells, 4), cells in C order
        cell = unit_cell(2, self.shifts())
        self._offsets = [cell.resolve_offset(0, r) for r in STOCHASTIC_OFFSETS]

    def shifts(self) -> list:
        return [(Fraction(0), Fraction(0))]

    def bond_specs(self, alpha: int, cells=None) -> list[BondSpec]:
        cells = np.zeros((1, 2), dtype=int) if cells is None else np.reshape(cells, (-1, 2))
        if np.any((cells < 0) | (cells >= self.n)):
            raise PotentialError(f"cells outside the model's {self.n} x {self.n} grid")
        flat = cell_index(cells.T, (self.n, self.n))
        return [BondSpec(off, SpringLaw(self.psi[flat, j])) for j, off in enumerate(self._offsets)]


# ------------------------------------------------------------------ factories


@dataclass(frozen=True)
class DynamicsSetup:
    """Slow-dynamics material: LJ chain with two species plus per-species masses."""

    model: LennardJones1D
    species_masses: tuple[float, ...]

    def mass_field(self, lattice: Multilattice) -> np.ndarray:
        """Per-site masses M(x) on the given lattice, shape (n_sites,)."""
        masses = np.array(self.species_masses)
        return masses[lattice.site_species()]


def make_dynamics_model() -> DynamicsSetup:
    """Two-species LJ chain: integer sites carry (s, ell, M) = (1.6, 0.99, 2),
    half-integer sites (0.4, 1.01, 1); interaction cutoff 3 lattice units."""
    params = LennardJonesParams(s=(1.6, 0.4), ell=(0.99, 1.01), cutoff=3.0)
    return DynamicsSetup(model=LennardJones1D(params), species_masses=(2.0, 1.0))


def external_force_2d(points: np.ndarray) -> np.ndarray:
    """Smooth body force 10 e^{-cos^2(pi x1) - cos^2(pi x2)} (sin 2pi x1, sin 2pi x2),
    before mean subtraction."""
    x1, x2 = points[:, 0], points[:, 1]
    amp = 10.0 * np.exp(-np.cos(np.pi * x1) ** 2 - np.cos(np.pi * x2) ** 2)
    return amp[:, None] * np.stack([np.sin(2 * np.pi * x1), np.sin(2 * np.pi * x2)], axis=1)


def make_stochastic_model(n: int, seed: int) -> tuple[Multilattice, RandomBond2D, LatticeField]:
    """Random bond network on (1/n)Z^2 with the zero-mean smooth body force."""
    if n & (n - 1):
        raise PotentialError("grid size must be a power of two")
    lat = square_lattice(n)
    model = RandomBond2D(n, seed)
    f = external_force_2d(lat.site_positions())
    f = f - f.mean(axis=0)[None, :]
    return lat, model, LatticeField(lat, f)
