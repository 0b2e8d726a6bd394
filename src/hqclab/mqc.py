"""Multilattice QC: shift-vector parametrization and the three-way equivalence.

Per element, the MQC degrees of freedom are the deformed shift vectors
q_1, ..., q_{m-1} (q_0 = 0); the bond gap between a site of species beta and
its neighbor of species a(beta, r) under the macro gradient F is

    F r + q_{a(beta, r)} - q_beta.

The per-element energy density (1/m) sum_beta V_beta(gaps) is made stationary
in the shifts by a small dense Newton, run on all elements of a mesh at once
over the flat bond arrays of a ``ShiftTable``.  The table of a
``potential.ModelStack`` carries one law entry per element, so one Newton
also serves the elements of many trials, each material its own.  A
converged shift state and a zero-mean cell corrector chi are two gauges of
the same microstructure: q_alpha = chi(p_alpha) - chi(p_0).  The
equivalence report evaluates a group of trials of one bond layout as one
such stack through all three formulations.
"""

from __future__ import annotations

import copy
import weakref
from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

from .fem import MacroMesh, element_gradients
from .homog import HomogenizedDensity
from .hqc import HQCOperator
from .lattice import Multilattice
from .network import MIN_STEP, RISE_TOL, SolverError
from .potential import InteractionModel, ModelStack, energies_or_inf

SHIFT_TOL = 1e-12


class ShiftSolveError(SolverError):
    pass


@cache
def _shift_structure(m: int, bonds: tuple) -> tuple:
    """(src, dst, rvec, B, band factor) of the (species, offset) pairs ``bonds``
    of a ``ShiftTable``: built once per (m, bonds) and shared by every model
    of that structure for the whole process."""
    src = np.array([beta for beta, _ in bonds])
    dst = np.array([off.species_target for _, off in bonds])
    rvec = np.array([off.r_float for _, off in bonds])
    incidence = np.zeros((m, len(bonds)))
    np.add.at(incidence, (dst, np.arange(len(bonds))), 1.0)
    np.add.at(incidence, (src, np.arange(len(bonds))), -1.0)
    # the rounding band of the shift gradient per unit of |forces| (derivatives)
    width = float(np.abs(incidence[1:]).sum(axis=1).max(initial=0.0))   # B holds 0 and +-1
    return src, dst, rvec, incidence[1:], width * np.finfo(float).eps * np.sqrt(2.0 * width) / m


class ShiftTable:
    """Every bond of a unit cell as flat arrays, evaluated over a stack of elements.

    ``src``/``dst`` are the source and target species of each bond, ``rvec``
    its offset (n_bonds, d) and ``law`` one law with per-bond parameters.
    ``B`` (m-1, n_bonds) is the signed species incidence of the free shifts:
    +1 at the target species, -1 at the source, and no row for q_0 = 0.
    All but the law come from the cached ``_shift_structure``.
    Gradients F are (T, d, d) and shifts q (T, m-1, d).  The table of a
    ``ModelStack`` has one law entry per element, and ``take(rows)`` is the
    table of the entries ``rows``.
    """

    def __init__(self, model: InteractionModel) -> None:
        specs = [(beta, spec) for beta in range(model.m) for spec in model.bond_specs(beta)]
        self.m, self.d = model.m, model.d
        bonds = tuple((beta, spec.offset) for beta, spec in specs)
        self.src, self.dst, self.rvec, self.B, self._band = _shift_structure(self.m, bonds)
        laws = [spec.law for _, spec in specs]
        self.law = type(laws[0]).stack(laws, [1] * len(laws))

    def take(self, rows) -> "ShiftTable":
        law = self.law.take(rows)
        if law is self.law:
            return self
        table = copy.copy(self)
        table.law = law
        return table

    def gaps(self, F: np.ndarray, q: np.ndarray) -> np.ndarray:
        """F r + q_dst - q_src per bond, shape (T, n_bonds, d)."""
        q_full = np.concatenate([np.zeros((len(q), 1, self.d)), q], axis=1)
        return self.rvec @ np.swapaxes(F, -1, -2) + q_full[:, self.dst] - q_full[:, self.src]

    def energy(self, F: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Element densities (1/m) sum_bonds phi_b, shape (T,)."""
        return self.law.energy(self.gaps(F, q), self.rvec).sum(axis=-1) / self.m

    def derivatives(self, F: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Shift gradient (T, m-1, d) and Hessian (T, (m-1)d, (m-1)d) of the
        densities, and the rounding band (T,) of the gradient's norm.

        A row of W nonzero terms of B forces sums with an error of at most
        (W - 1) u times the sum of their magnitudes (u the unit roundoff).
        Over the rows that is at most (W - 1) u sqrt(2 W) |forces| / m, since
        each bond enters at most two rows; the band taken, with W in place
        of W - 1, is over twice that."""
        gaps = self.gaps(F, q)
        forces = self.law.grad(gaps, self.rvec)
        grad = self.B @ forces / self.m
        k = self.law.hess(gaps, self.rvec)
        nq = (self.m - 1) * self.d
        hess = np.einsum("ab,cb,tbij->taicj", self.B, self.B, k).reshape(len(q), nq, nq) / self.m
        return grad, hess, self._band * np.sqrt(np.einsum("tbi,tbi->t", forces, forces))


_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # model -> its ShiftTable


def _shift_table(model: InteractionModel) -> ShiftTable:
    """The model's ShiftTable, built on first use; models are treated as immutable."""
    return _TABLES[model] if model in _TABLES else _TABLES.setdefault(model, ShiftTable(model))


def _trial_energy(table: ShiftTable, F: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Element densities; an element whose bonds collapse reads inf.  An
    element tried alone is tried with its own law entry."""
    return energies_or_inf(lambda F, q, rows: table.take(rows).energy(F, q), F, q, np.arange(len(F)))


def _shift_newton(table: ShiftTable, F: np.ndarray, q: np.ndarray, tol: float,
                  max_iter: int) -> tuple[np.ndarray, np.ndarray]:
    """Newton on every element of the stack, each with its own law entry
    (``ShiftTable.take``); returns the shifts and final residuals.  An
    element stops once its residual is at most tol (1 + |F|) plus the
    rounding band of its gradient (``ShiftTable.derivatives``)."""
    threshold = tol * (1.0 + np.linalg.norm(F.reshape(len(F), -1), axis=1))
    res = np.zeros(len(F))
    active = np.arange(len(F))
    for it in range(max_iter + 1):
        grad, hess, band = table.take(active).derivatives(F[active], q[active])
        flat = grad.reshape(len(grad), -1)
        res[active] = np.sqrt(np.add.reduce(flat * flat, axis=1))   # np.linalg.norm, without its overhead
        unconverged = ~(res[active] <= threshold[active] + band)
        active, grad, hess = active[unconverged], grad[unconverged], hess[unconverged]
        if not len(active):
            return q, res
        if it == max_iter:
            raise ShiftSolveError(
                f"shift Newton did not converge: worst residual {res[active].max():.3e} "
                f"on {len(active)} of {len(F)} elements after {max_iter} iterations")
        try:
            step = np.linalg.solve(hess, -grad.reshape(len(active), -1, 1)).reshape(grad.shape)
        except np.linalg.LinAlgError as exc:
            raise ShiftSolveError("singular shift Hessian") from exc
        Fa, qa, live = F[active], q[active], table.take(active)
        base = live.energy(Fa, qa)
        bound = base + RISE_TOL * (1 + np.abs(base))
        lam, pending, size = np.ones(len(active)), np.arange(len(active)), 1.0
        while len(pending):  # halve the steps of the elements whose density rose
            if size <= MIN_STEP:
                raise ShiftSolveError("shift line search failed")
            trial = _trial_energy(live.take(pending), Fa[pending], qa[pending] + size * step[pending])
            pending = pending[~(trial <= bound[pending])]
            size *= 0.5
            lam[pending] = size
        q[active] = qa + lam[:, None, None] * step


def solve_shift_vectors(model: InteractionModel, F, guess: np.ndarray | None = None,
                        tol: float = SHIFT_TOL, max_iter: int = 50) -> np.ndarray:
    """Stationary shift vectors q(F); guess-deterministic.

    ``F`` is one gradient (d, d), giving shifts (m-1, d), or a stack (T, d, d),
    giving (T, m-1, d).  One Newton runs on the whole stack: element t stops
    once its residual |dW/dq| is at most tol (1 + |F_t|), and its step is
    halved until its density does not rise.  If any element fails, the whole
    call raises ``ShiftSolveError``.
    """
    d, m = model.d, model.m
    F = np.asarray(F, dtype=float)
    single = F.ndim < 3
    F = F.reshape((1 if single else -1, d, d))
    shape = (len(F), m - 1, d)
    q = np.zeros(shape) if guess is None else np.array(guess, dtype=float).reshape(shape)
    q = _shift_newton(_shift_table(model), F, q, tol, max_iter)[0] if m > 1 else q
    return q[0] if single else q


@dataclass
class EquivalenceReport:
    e_hqc: float
    e_fem: float
    e_mqc: float

    @property
    def max_gap(self) -> float:
        vals = (self.e_hqc, self.e_fem, self.e_mqc)
        return max(abs(a - b) for a in vals for b in vals)


def equivalence_report(
    models: Sequence[InteractionModel],
    lattice: Multilattice,
    mesh: MacroMesh,
    fields: np.ndarray,
) -> list[EquivalenceReport]:
    """Evaluate each macro field ``fields[k]`` of model ``models[k]`` through
    the three method formulations, all trials as one ``ModelStack`` of one
    bond layout with one entry per (trial, element).  ``fields`` holds the
    nodal values of the T fields, (T, n_vertices, d).

    All microproblems start from the zero guess (matched branches), so the
    three energies agree up to solver tolerances whenever the microstructure
    is unique along that branch.  Every entry is solved as it would be alone,
    so a trial's energies do not depend on the others; a failure of any
    raises for the whole group.
    """
    n, d = mesh.n_elements, mesh.d
    stack = ModelStack([model for model in models for _ in range(n)])
    grads = element_gradients(mesh, fields).reshape(-1, d, d)
    e_hqc = HQCOperator(stack, lattice, mesh).at(grads).phi
    e_fem = HomogenizedDensity(stack).phi0(grads)
    e_mqc = _shift_table(stack).energy(grads, solve_shift_vectors(stack, grads))
    # one dot per trial, as alone: a matrix-vector product over the stack rounds
    # otherwise; the row sums of np.sum are each trial's sum alone
    v = mesh.volumes
    sums = np.sum(v * e_mqc.reshape(-1, n), axis=1).tolist()
    return [EquivalenceReport(e_hqc=float(v @ h), e_fem=float(v @ f), e_mqc=e)
            for h, f, e in zip(e_hqc.reshape(-1, n), e_fem.reshape(-1, n), sums)]
