"""Periodic multilattice geometry and discrete vector calculus.

A multilattice is a union of m shifted copies of the Bravais lattice
eps*Z^d, restricted to the periodic unit cell Omega = [0,1)^d.  A site is a
pair (Bravais cell, species), and ``Multilattice.site_index`` alone turns such
pairs into flat site ids; it numbers the cells through ``cell_index``, which
also numbers the cell offsets of the FFT preconditioner.  Adjacency is
resolved with exact rational arithmetic so that periodic wrap-around never
suffers from floating-point coincidence checks.

That arithmetic is done once per species-shift set: ``species_shifts`` keeps
one validated ``SpeciesShifts`` per set, hashed once, which every lattice,
model and memo key of the set shares; ``unit_cell`` keeps one lattice period
per set, ``chain_offsets`` the resolved offsets of each chain cell, and a
lattice keeps its ``subgrid`` tori.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Sequence

import numpy as np

#: relative tolerance used for "zero mean" and similar float coincidence checks
ZERO_MEAN_TOL = 1e-12


class LatticeError(ValueError):
    """Invalid lattice construction or an offset that leaves the lattice."""


def _as_fraction_vector(v, d: int) -> tuple[Fraction, ...]:
    if np.isscalar(v) or isinstance(v, Fraction):
        v = (v,)
    vec = tuple(Fraction(x).limit_denominator(10**12) if not isinstance(x, Fraction) else x for x in v)
    if len(vec) != d:
        raise LatticeError(f"expected a {d}-vector, got {v!r}")
    return vec


def cell_index(coords, grid: tuple[int, ...]) -> np.ndarray:
    """Flat id of integer cells on the periodic grid ``grid``, given axis by
    axis as d coordinate arrays ``coords``: each coordinate wraps, and the grid
    is numbered in C order.  Integer arithmetic in the dtype of ``coords``."""
    flat = 0
    for x, n in zip(coords, grid, strict=True):
        flat = flat * n + np.mod(x, n)
    return flat


class SpeciesShifts(tuple):
    """The species shift vectors p_0, ..., p_{m-1} of a multilattice, tuples of
    Fractions: one object per shift set (``species_shifts``), hashed once.
    Two lattices of one set hold the same vectors, so comparing them tests
    identity, not Fractions."""

    @cached_property
    def _hash(self) -> int:
        return tuple.__hash__(self)

    def __hash__(self) -> int:
        return self._hash


#: the ``SpeciesShifts`` of every shift set met, keyed by its vectors
_SHIFTS: dict = {}


def species_shifts(d: int, shifts: Sequence) -> SpeciesShifts:
    """The one ``SpeciesShifts`` of the d-vectors ``shifts`` (Fractions or
    numbers), validated when first met: at least one, p_0 = 0, each in [0,1)^d,
    pairwise distinct.  A ``SpeciesShifts`` of d-vectors is returned as it is."""
    if type(shifts) is SpeciesShifts and len(shifts[0]) == d:
        return shifts
    vectors = tuple(_as_fraction_vector(p, d) for p in shifts)
    if vectors not in _SHIFTS:
        if not vectors:
            raise LatticeError("at least one species shift is required")
        if any(x != 0 for x in vectors[0]):
            raise LatticeError("the first species shift must be zero")
        for p in vectors:
            if any(x < 0 or x >= 1 for x in p):
                raise LatticeError(f"species shift {p} outside [0,1)^d")
        if len(set(vectors)) != len(vectors):
            raise LatticeError("species shifts must be pairwise distinct")
        _SHIFTS[vectors] = SpeciesShifts(vectors)
    return _SHIFTS[vectors]


@dataclass(frozen=True)
class NeighborOffset:
    """Offset r (in lattice units: the neighbor of x sits at x + eps*r).

    ``species_target`` is the species of the neighbor and ``cell_shift`` the
    integer Bravais-cell displacement, i.e. p_source + r = cell_shift + p_target.
    Hashed once: offsets key the structure memos of ``network`` and ``mqc``.
    """

    r: tuple[Fraction, ...]
    species_target: int
    cell_shift: tuple[int, ...]

    @cached_property
    def _hash(self) -> int:
        return hash((self.r, self.species_target, self.cell_shift))

    def __hash__(self) -> int:
        return self._hash

    @property
    def r_float(self) -> np.ndarray:
        return np.array([float(x) for x in self.r])


class Multilattice:
    """Periodic multilattice eps*Z^d + eps*P on the unit cell [0,1)^d.

    Parameters
    ----------
    d : spatial dimension (1 or 2)
    eps : lattice parameter; 1/eps must be a positive integer
    shifts : species shift vectors p_0, ..., p_{m-1} in [0,1)^d, p_0 = 0,
        held as their ``species_shifts``
    """

    def __init__(self, d: int, eps, shifts: Sequence) -> None:
        if d not in (1, 2):
            raise LatticeError(f"dimension must be 1 or 2, got {d}")
        eps = Fraction(eps) if not isinstance(eps, Fraction) else eps
        if eps <= 0 or (1 / eps).denominator != 1:
            raise LatticeError(f"1/eps must be a positive integer, got eps={eps}")
        self.d = d
        self.eps = eps
        self.eps_float = float(eps)
        self.shifts = species_shifts(d, shifts)
        self.m = len(self.shifts)
        self.cells_per_dim = int(1 / eps)
        self.n_cells = self.cells_per_dim**d
        self.n_sites = self.m * self.n_cells
        #: cell multi-indices in C order, (n_cells, d): cell_multi[k] is the k-th cell
        self.cell_multi = np.indices((self.cells_per_dim,) * d).reshape(d, -1).T
        self._subgrids: dict = {}

    def subgrid(self, n: int) -> "Multilattice":
        """The lattice of these shifts on n cells per dimension, an HQC
        sampling torus: built once per n and kept by this lattice, and at
        n = ``cells_per_dim`` this lattice itself."""
        if n == self.cells_per_dim:
            return self
        if n not in self._subgrids:
            self._subgrids[n] = Multilattice(self.d, Fraction(1, n), self.shifts)
        return self._subgrids[n]

    # ------------------------------------------------------------------ geometry

    def site_index(self, cells, species=0) -> np.ndarray:
        """Flat site id of (Bravais cell, species) pairs: cells wrap periodically
        and are numbered in C order, each holding its m species consecutively.

        ``cells`` is integer (..., d) and ``species`` broadcasts against its
        leading axes.  Every flat site id of the package comes from here; a
        flat cell id is the site id of species 0 divided by m (``cell_index``).
        """
        coords = np.moveaxis(np.asarray(cells, dtype=np.int64), -1, 0)
        return cell_index(coords, (self.cells_per_dim,) * self.d) * self.m + np.asarray(species)

    def site_species(self) -> np.ndarray:
        return np.tile(np.arange(self.m), self.n_cells)

    def site_cells(self) -> np.ndarray:
        """Bravais cell multi-index of every site, shape (n_sites, d)."""
        return np.repeat(self.cell_multi, self.m, axis=0)

    def site_positions(self) -> np.ndarray:
        shifts = np.array([[float(x) for x in p] for p in self.shifts])
        pos = self.cell_multi[:, None, :] + shifts[None, :, :]
        return (self.eps_float * pos).reshape(self.n_sites, self.d)

    def resolve_offset(self, species: int, r) -> NeighborOffset:
        """Resolve offset r from a site of the given species to its target site.

        Raises LatticeError if x + eps*r is not a lattice site.
        """
        r = _as_fraction_vector(r, self.d)
        p = self.shifts[species]
        target = tuple(pi + ri for pi, ri in zip(p, r))
        frac = tuple(t % 1 for t in target)
        for beta, q in enumerate(self.shifts):
            if q == frac:
                shift = tuple(int(t - f) for t, f in zip(target, frac))
                return NeighborOffset(r=r, species_target=beta, cell_shift=shift)
        raise LatticeError(f"offset {r} from species {species} does not land on a lattice site")


#: one-cell lattices by ``SpeciesShifts``: see ``unit_cell``
_UNIT_CELLS: dict = {}


def unit_cell(d: int, shifts: Sequence) -> Multilattice:
    """One lattice period (eps = 1) with the species ``shifts``, built once per
    shift set and shared: the cell system of homogenization and the period
    tori of HQC sampling stand on the same lattice.  Lattices are not changed
    once built."""
    shifts = species_shifts(d, shifts)
    if shifts not in _UNIT_CELLS:
        _UNIT_CELLS[shifts] = Multilattice(d, 1, shifts)
    return _UNIT_CELLS[shifts]


@dataclass
class LatticeField:
    """Periodic vector-valued function on the sites of a multilattice."""

    lattice: Multilattice
    values: np.ndarray  # (n_sites, d)

    def __post_init__(self) -> None:
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if self.values.shape == (1, self.lattice.n_sites) and self.lattice.d == 1:
            self.values = self.values.T
        if self.values.shape != (self.lattice.n_sites, self.lattice.d):
            raise LatticeError(
                f"field values must have shape {(self.lattice.n_sites, self.lattice.d)}, got {self.values.shape}"
            )

    def copy(self) -> "LatticeField":
        return LatticeField(self.lattice, self.values.copy())


# ---------------------------------------------------------------------- calculus


def neighbor_sites(lattice: Multilattice, r) -> np.ndarray:
    """Flat id of the site x + eps*r for every site x, shape (n_sites,).

    The offset must land on a lattice site from every species present.
    """
    rvec = r.r if isinstance(r, NeighborOffset) else r
    offsets = [lattice.resolve_offset(alpha, rvec) for alpha in range(lattice.m)]
    return lattice.site_index(lattice.cell_multi[:, None, :] + [off.cell_shift for off in offsets],
                              [off.species_target for off in offsets]).ravel()


def discrete_derivative(u: LatticeField, r) -> LatticeField:
    """Forward difference quotient D_r u(x) = (u(x + eps*r) - u(x)) / eps;
    ``r`` as for ``neighbor_sites``."""
    dst = neighbor_sites(u.lattice, r)
    return LatticeField(u.lattice, (u.values[dst] - u.values) / u.lattice.eps_float)


def translate(u: LatticeField, cells: Sequence[int]) -> LatticeField:
    """Periodic shift (T u)(x) = u(x + eps*cells) by an integer number of Bravais cells."""
    lat = u.lattice
    shifted = lat.cell_multi[:, None, :] + np.atleast_1d(cells).astype(int)
    return LatticeField(lat, u.values[lat.site_index(shifted, np.arange(lat.m)).ravel()])


def average(u: LatticeField) -> np.ndarray:
    """Site average <u>_S, a d-vector."""
    return u.values.mean(axis=0)


def project_zero_mean(u: LatticeField) -> LatticeField:
    return LatticeField(u.lattice, u.values - average(u)[None, :])


def nearest_neighbor_offsets(lattice: Multilattice) -> list:
    """Offsets used by the discrete H1 seminorm.

    1D: one species step r = 1/m (requires the uniform chain shift structure);
    2D: the axis offsets (1,0) and (0,1).
    """
    if lattice.d == 1:
        return [Fraction(1, lattice.m)]
    return [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]


def discrete_norms(u: LatticeField, neighbors: list[np.ndarray] | None = None) -> tuple[float, float]:
    """Discrete (L2, H1) norms: l2 = <|u|^2>^(1/2), h1 = (l2^2 + sum_r <|D_r u|^2>)^(1/2).

    ``neighbors`` is the ``neighbor_sites`` of each of the lattice's
    ``nearest_neighbor_offsets`` when already resolved (fields on one lattice
    share them); None resolves them here.
    """
    lat = u.lattice
    if neighbors is None:
        neighbors = [neighbor_sites(lat, r) for r in nearest_neighbor_offsets(lat)]
    l2sq = float(np.mean(np.sum(u.values**2, axis=1)))
    h1sq = l2sq
    for dst in neighbors:
        du = (u.values[dst] - u.values) / lat.eps_float
        h1sq += float(np.mean(np.sum(du**2, axis=1)))
    return np.sqrt(l2sq), np.sqrt(h1sq)


def l2_norm(u: LatticeField) -> float:
    return float(np.sqrt(np.mean(np.sum(u.values**2, axis=1))))


@cache
def chain_shifts(m: int) -> SpeciesShifts:
    """The uniform chain shifts P = (0, 1/m, ..., (m-1)/m)."""
    return species_shifts(1, [(Fraction(k, m),) for k in range(m)])


@cache
def chain_offsets(m: int, count: int) -> tuple[tuple[NeighborOffset, ...], ...]:
    """The offsets r = k/m, k = 1..count, from each species of the uniform
    m-species chain: resolved once per (m, count) on its ``unit_cell``, so
    chain models of one species count share them."""
    cell = unit_cell(1, chain_shifts(m))
    return tuple(tuple(cell.resolve_offset(alpha, Fraction(k, m)) for k in range(1, count + 1))
                 for alpha in range(m))


#: the shift set of the simple square lattice
SQUARE_SHIFTS = species_shifts(2, [(0, 0)])


def chain_lattice(eps, m: int) -> Multilattice:
    """1D multilattice with the uniform shifts ``chain_shifts(m)``."""
    return Multilattice(1, eps, chain_shifts(m))


def square_lattice(n: int) -> Multilattice:
    """Simple 2D lattice (1/n)*Z^2 on the unit cell."""
    return Multilattice(2, Fraction(1, n), SQUARE_SHIFTS)
