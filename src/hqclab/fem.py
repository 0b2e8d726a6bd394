"""Uniform periodic simplicial macro meshes and P1 fields.

Meshes are structured: intervals in 1D, right triangles from a square grid in
2D (each cell split along its main diagonal).  Vertices are periodic; element
corner coordinates are stored unwrapped so that gradients never see the seam.
Lattice sites find their elements in exact integer coordinates
(``site_elements``), never from float positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .lattice import LatticeField, discrete_norms


class MeshError(ValueError):
    """Invalid mesh construction or mesh/lattice misalignment."""


class MacroMesh:
    """Uniform periodic partition of [0,1)^d into simplices with leg size 1/n."""

    def __init__(self, d: int, n: int) -> None:
        if d not in (1, 2):
            raise MeshError("mesh dimension must be 1 or 2")
        if n < 1:
            raise MeshError("need at least one element per direction")
        self.d = d
        self.n = int(n)
        self.h = 1.0 / n
        if d == 1:
            self.vertices = np.arange(n)[:, None] / n
            corners = np.stack([np.arange(n), np.arange(n) + 1], axis=1)[:, :, None]
        else:
            ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
            self.vertices = np.stack([ii.ravel(), jj.ravel()], axis=1) / n
            # per grid cell: the lower triangle (right angle at (i+1, j), covers
            # fx >= fy), then the upper one (right angle at (i, j+1))
            steps = np.array([[[0, 0], [1, 0], [1, 1]], [[0, 0], [1, 1], [0, 1]]])
            cells = np.stack([ii.ravel(), jj.ravel()], axis=1)
            corners = (cells[:, None, None, :] + steps[None]).reshape(-1, 3, 2)
        #: unwrapped corner indices on the 1/n grid, (n_elements, d+1, d); vertex ids wrap
        self.corners = corners
        wrapped = corners % n
        self.elements = wrapped[..., 0] if d == 1 else wrapped[..., 0] * n + wrapped[..., 1]
        self.el_coords = corners.astype(float) / n
        self.n_vertices = len(self.vertices)
        self.n_elements = len(self.elements)
        self.volumes = np.full(self.n_elements, 1.0 / self.n_elements)
        # gradients of the local P1 basis, (n_elements, d+1, d): with the edge
        # vectors from vertex 0 as columns of G, lambda(x) = G^-1 (x - X0)
        G = (self.el_coords[:, 1:] - self.el_coords[:, :1]).transpose(0, 2, 1)
        Ginv = np.linalg.inv(G)
        self._grad_basis = np.concatenate([-Ginv.sum(axis=1, keepdims=True), Ginv], axis=1)
        # global DOF of each local (vertex, component) pair: (n_elements, d+1, d)
        self.dofs = self.elements[:, :, None] * d + np.arange(d)

    def grad_basis(self, t: int | None = None) -> np.ndarray:
        return self._grad_basis if t is None else self._grad_basis[t]


def site_elements(mesh: MacroMesh, lattice, sites=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Owner element, P1 weights and offset from the owner's first corner of
    every lattice site (or of the flat site ids ``sites``), in exact integers.

    With Q the lcm of the shift denominators, N cells and g = gcd(N, n), the
    site (cell c, species alpha) sits at X = (c + p_alpha) Q n / g in units of
    1/K mesh cell, K = Q N / g: grid cell X // K, local coordinates
    r = X mod K.  The elements holding it are the cell's simplices that
    contain r (in 2D the lower one for r_x >= r_y, the upper one for
    r_x <= r_y) and, for n > 1, those of the cell one step back along each
    axis where r = 0, at local coordinate K; for n = 1 only the image in
    [X0, X0 + 1)^d counts.  The owner is the one with the lexicographically
    smallest barycenter, the smallest (i, upper before lower, j).  Returns
    the owners (k,), the weights (k, d+1), (K - r, r) / K in 1D and
    (K - r_x, r_x - r_y, r_y) / K (lower) or (K - r_y, r_x, r_y - r_x) / K
    (upper) in 2D, and the offsets r / (K n), (k, d).
    """
    d, n, N = mesh.d, mesh.n, lattice.cells_per_dim
    Q = math.lcm(*(x.denominator for p in lattice.shifts for x in p))
    g = math.gcd(N, n)
    K = Q * (N // g)
    shifts = np.array([[int(x * Q) for x in p] for p in lattice.shifts], dtype=np.int64)
    if sites is None:
        X = (lattice.cell_multi[:, None, :] * Q + shifts).reshape(-1, d)
    else:
        sites = np.asarray(sites)
        X = lattice.cell_multi[sites // lattice.m] * Q + shifts[sites % lattice.m]
    cell, r = np.divmod(X * (n // g), K)
    back = (r == 0) & (n > 1)    # the cell one step back holds the site too, at local K
    # smallest i: step back along x unless that wraps to cell n - 1
    step = back & (cell > 0)
    if d == 2:
        # upper before lower: the upper simplex holds r_x <= r_y, and any r_x
        # at r_y = K; then smallest j: step back along y unless that wraps,
        # or where only the cell before has an upper simplex holding the site
        rx, ry = r[:, 0] + step[:, 0] * K, r[:, 1]
        upper = (rx <= ry) | back[:, 1]
        step[:, 1] = back[:, 1] & ((rx > ry) | (cell[:, 1] > 0))
    cell = (cell - step) % n
    loc = r + step * K
    if d == 1:
        owner = cell[:, 0]
        lam = np.stack([K - loc[:, 0], loc[:, 0]], axis=1)
    else:
        owner = 2 * (cell[:, 0] * n + cell[:, 1]) + upper
        lx, ly = loc[:, 0], loc[:, 1]
        lam = np.where(upper[:, None], np.stack([K - ly, lx, ly - lx], axis=1),
                       np.stack([K - lx, lx - ly, ly], axis=1))
    return owner, lam / K, loc / (K * n)


def build_mesh(d: int, n_elements: int) -> MacroMesh:
    """Uniform periodic mesh with n_elements per direction."""
    return MacroMesh(d, n_elements)


def check_alignment(mesh: MacroMesh, lattice) -> None:
    cells = Fraction(1) / lattice.eps
    if cells % mesh.n != 0:
        raise MeshError(f"mesh size {mesh.n} does not divide 1/eps = {cells}")


@dataclass
class P1Field:
    """Continuous piecewise-linear periodic field: one value per vertex."""

    mesh: MacroMesh
    values: np.ndarray  # (n_vertices, d)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float).reshape(self.mesh.n_vertices, self.mesh.d)


def p1_zero_mean(u: P1Field) -> P1Field:
    # uniform meshes: the integral of u^h is the plain vertex average
    return P1Field(u.mesh, u.values - u.values.mean(axis=0)[None, :])


def all_element_gradients(u: P1Field) -> np.ndarray:
    U = u.values[u.mesh.elements]  # (ne, d+1, d)
    return np.einsum("tlj,tli->tij", u.mesh.grad_basis(), U)


def p1_interpolate_lattice(mesh: MacroMesh, u: LatticeField) -> P1Field:
    """Nodal interpolation: sample the lattice field at the mesh vertices.

    Vertices must coincide with lattice sites (aligned meshes).
    """
    lat = u.lattice
    rel = mesh.vertices * (1.0 / lat.eps_float)  # in cell units
    cells = np.round(rel).astype(int)
    if not np.allclose(rel, cells, atol=1e-9):
        raise MeshError("mesh vertex does not coincide with a Bravais site")
    return P1Field(mesh, u.values[lat.site_index(cells)])


def sample_on_lattice(u: P1Field, lattice) -> LatticeField:
    """The P1 field at every lattice site, from the weights of ``site_elements``."""
    elems, lam, _ = site_elements(u.mesh, lattice)
    return LatticeField(lattice, np.einsum("pl,pli->pi", lam, u.values[u.mesh.elements[elems]]))


def lattice_error(u_lattice: LatticeField, approx) -> tuple[float, float]:
    """Discrete (L2, H1) norms of the difference on the lattice.

    ``approx`` may be another lattice field or a P1 field (sampled at sites).
    """
    if isinstance(approx, P1Field):
        approx = sample_on_lattice(approx, u_lattice.lattice)
    diff = LatticeField(u_lattice.lattice, approx.values - u_lattice.values)
    return discrete_norms(diff)


def scatter_to_vertices(mesh: MacroMesh, nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Sum the rows of ``values`` (k, c) onto the vertices ``nodes`` (k,), shape
    (n_vertices, c): one ``bincount`` per component, which adds in input order
    as ``np.add.at`` does."""
    return np.stack([np.bincount(nodes, weights=col, minlength=mesh.n_vertices)
                     for col in values.T], axis=1)


def load_from_lattice(mesh: MacroMesh, f: LatticeField) -> np.ndarray:
    """Load vector b[k, i] = <f_i phi_k>_M pairing the force with nodal hats."""
    elems, lam, _ = site_elements(mesh, f.lattice)
    w = lam[:, :, None] * f.values[:, None, :] / f.lattice.n_sites
    return scatter_to_vertices(mesh, mesh.elements[elems].ravel(), w.reshape(-1, mesh.d))


def nodal_forces(mesh: MacroMesh, stresses: np.ndarray) -> np.ndarray:
    """Nodal residual sum_T |T| P_T grad(phi_k) of per-element stresses (n_elements, d, d)."""
    contrib = mesh.volumes[:, None, None] * np.einsum("tlj,tij->tli", mesh.grad_basis(), stresses)
    return scatter_to_vertices(mesh, mesh.elements.ravel(), contrib.reshape(-1, mesh.d))


def assemble(mesh: MacroMesh, tangents: np.ndarray):
    """P1 stiffness K[(a,i),(b,k)] = sum_T |T| A_T[i,j,k,l] d_j phi_a d_l phi_b, a
    CSR matrix, and its stencil S ((n,)*d + (d, d)), the grid average of K:
    block [delta] couples a vertex to the vertex delta further on.

    ``tangents`` is one tangent per element (n_elements, d, d, d, d) or one
    tangent (d, d, d, d) shared by all; its shape picks the path.  Elements
    come cell by cell, one per orientation, and each local vertex pair of an
    orientation sits at a fixed vertex offset, so S sums the local stiffnesses
    per orientation and pair.  Per element, K is summed from every element's
    block.  A shared tangent makes K block-circulant, K = S on every vertex, so
    only the reference elements of cell 0 are integrated and K is written
    straight into CSR rows of one width: d blocks per distinct offset (3 in
    1D and 7 in 2D for n >= 3, fewer where offsets alias mod n).
    """
    d, n = mesh.d, mesh.n
    n_orient = mesh.n_elements // mesh.n_vertices
    shared = tangents.ndim == 4
    gb = mesh.grad_basis()[:n_orient] if shared else mesh.grad_basis()
    local = np.einsum(f"tlj,{'' if shared else 't'}ijkm,tpm->tlipk", gb, tangents, gb, optimize=True)
    local *= mesh.volumes[0]    # uniform mesh
    corners = mesh.corners[:n_orient]                                # the elements of cell 0, unwrapped
    delta = (corners[:, None, :] - corners[:, :, None]) % n        # [o, a, b]: vertex b less vertex a
    per_pair = local if shared else local.reshape(
        (mesh.n_vertices, n_orient) + local.shape[1:]).sum(axis=0) / mesh.n_vertices
    S = np.zeros((n,) * d + (d, d))
    for o, a, b in np.ndindex(n_orient, d + 1, d + 1):
        S[tuple(delta[o, a, b])] += per_pair[o, a, :, b]
    n_dof = mesh.n_vertices * d
    if not shared:
        rows = np.broadcast_to(mesh.dofs[:, :, :, None, None], local.shape)
        cols = np.broadcast_to(mesh.dofs[:, None, None, :, :], local.shape)
        K = sp.coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())), shape=(n_dof, n_dof)).tocsr()
        return K, S
    offsets = np.unique(delta.reshape(-1, d), axis=0)
    grid = np.indices((n,) * d).reshape(d, -1, 1)                    # vertex multi-indices
    neighbours = np.ravel_multi_index(tuple(grid + offsets.T[:, None]), (n,) * d, mode="wrap")
    # row (v, i) holds, per offset o and component k, K[(v, i), (v + o, k)] = S[o][i, k]
    shape = (mesh.n_vertices, d, len(offsets), d)
    cols = np.broadcast_to((neighbours[:, None, :, None] * d + np.arange(d)).astype(np.int32), shape)
    data = np.broadcast_to(S[tuple(offsets.T)].transpose(1, 0, 2), shape)
    width = len(offsets) * d
    indptr = np.arange(0, n_dof * width + 1, width, dtype=np.int32)
    return sp.csr_matrix((data.ravel(), cols.ravel(), indptr), shape=(n_dof, n_dof)), S
