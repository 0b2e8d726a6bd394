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

import numpy as np

from .lattice import LatticeError, LatticeField, cell_index, discrete_norms
from .network import BlockRows


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
        self.n_vertices = len(self.vertices)
        self.n_elements = len(self.elements)
        self.volumes = np.full(self.n_elements, 1.0 / self.n_elements)
        # gradients of the local P1 basis, one per orientation (element t has
        # orientation t % n_orient), (n_orient, d+1, d): with the integer edge
        # steps E of cell 0's elements as columns, lambda(x) = n E^-1 (x - X0),
        # and E^-1 of these unimodular steps is exact
        n_orient = self.n_elements // self.n_vertices
        E = (corners[:n_orient, 1:] - corners[:n_orient, :1]).transpose(0, 2, 1)
        Einv = np.linalg.inv(E)
        self.grad_basis = n * np.concatenate([-Einv.sum(axis=1, keepdims=True), Einv], axis=1)
        # the stiffness's vertex rows: one block per distinct vertex offset of the
        # local vertex pairs, pair_blocks[o, a, b] that of pair (a, b) of orientation o
        delta = (corners[:n_orient, None, :] - corners[:n_orient, :, None]) % n     # vertex b less vertex a
        offsets, blocks = np.unique(delta.reshape(-1, d), axis=0, return_inverse=True)
        self.stiffness_rows = BlockRows((n,) * d, [cell_index(offsets.T, (n,) * d)])
        self.pair_blocks = blocks.reshape(delta.shape[:-1])


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
    if d != lattice.d:
        raise MeshError(f"a {d}D mesh on a {lattice.d}D lattice")
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
    if mesh.d != lattice.d:
        raise MeshError(f"a {mesh.d}D mesh on a {lattice.d}D lattice")
    if lattice.cells_per_dim % mesh.n:
        raise MeshError(f"mesh size {mesh.n} does not divide 1/eps = {lattice.cells_per_dim}")


@dataclass
class P1Field:
    """Continuous piecewise-linear periodic field: one value per vertex."""

    mesh: MacroMesh
    values: np.ndarray  # (n_vertices, d)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float).reshape(self.mesh.n_vertices, self.mesh.d)


def nodal_zero_mean(values: np.ndarray) -> np.ndarray:
    """Nodal values with leading stack axes (..., n_vertices, d), each field
    less its vertex average (on uniform meshes the integral of u^h).  Read in
    C order, so every entry is that of its field alone, bit for bit, whatever
    the layout of the stack."""
    values = np.ascontiguousarray(values, dtype=float)
    return values - values.mean(axis=-2, keepdims=True)


def p1_zero_mean(u: P1Field) -> P1Field:
    return P1Field(u.mesh, nodal_zero_mean(u.values))


def element_gradients(mesh: MacroMesh, values: np.ndarray) -> np.ndarray:
    """Element gradients of nodal values with leading stack axes,
    (..., n_vertices, d) -> (..., n_elements, d, d): every entry is the
    gradient of its own field, bit for bit."""
    gb, d = mesh.grad_basis, mesh.d
    n_orient, lead = len(gb), values.shape[:-2]
    # one matrix product per orientation on rows (entry, cell, i), not a tiny BLAS call per element
    U = np.take(values.reshape(-1, mesh.n_vertices, d), mesh.elements, axis=1)
    U = U.reshape(len(U), -1, n_orient, d + 1, d).transpose(2, 0, 1, 4, 3).reshape(n_orient, -1, d + 1)
    G = (U @ gb).reshape(n_orient, -1, mesh.n_elements // n_orient, d, d).transpose(1, 2, 0, 3, 4)
    return G.reshape(lead + (mesh.n_elements, d, d))


def all_element_gradients(u: P1Field) -> np.ndarray:
    """The element gradients (n_elements, d, d) of one field."""
    return element_gradients(u.mesh, u.values)


def p1_interpolate_lattice(mesh: MacroMesh, u: LatticeField) -> P1Field:
    """Nodal interpolation: the value of the species-0 site at every vertex.
    The mesh must be aligned (n divides the N cells per direction); vertex
    multi-index v then sits at Bravais cell v N / n."""
    check_alignment(mesh, u.lattice)
    grid = np.indices((mesh.n,) * mesh.d).reshape(mesh.d, -1).T     # vertex multi-indices
    return P1Field(mesh, u.values[u.lattice.site_index(grid * (u.lattice.cells_per_dim // mesh.n))])


def sample_on_lattice(u: P1Field, lattice) -> LatticeField:
    """The P1 field at every lattice site, from the weights of ``site_elements``."""
    elems, lam, _ = site_elements(u.mesh, lattice)
    corners = np.take(u.values, np.take(u.mesh.elements, elems, axis=0), axis=0)   # not a 2-D fancy index
    return LatticeField(lattice, np.einsum("pl,pli->pi", lam, corners))


def lattice_error(u_lattice: LatticeField, approx) -> tuple[float, float]:
    """Discrete (L2, H1) norms of the difference on the lattice.

    ``approx`` may be another field on the same lattice or a P1 field
    (sampled at sites).
    """
    if isinstance(approx, P1Field):
        approx = sample_on_lattice(approx, u_lattice.lattice)
    elif approx.lattice is not u_lattice.lattice:
        raise LatticeError("the two lattice fields stand on different lattices")
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
    gb, d = mesh.grad_basis, mesh.d
    # one matrix product per orientation, on stress rows (cell, i), as in all_element_gradients
    P = stresses.reshape(-1, len(gb), d, d).swapaxes(0, 1).reshape(len(gb), -1, d) @ gb.swapaxes(-1, -2)
    local = P.reshape(len(gb), -1, d, d + 1).transpose(1, 0, 3, 2).reshape(-1, d + 1, d)
    return scatter_to_vertices(mesh, mesh.elements.ravel(), (mesh.volumes[:, None, None] * local).reshape(-1, d))


def assemble(mesh: MacroMesh, tangents: np.ndarray):
    """P1 stiffness K[(a,i),(b,k)] = sum_T |T| A_T[i,j,k,l] d_j phi_a d_l phi_b, a
    CSR matrix, and its stencil S ((n,)*d + (d, d)), the grid average of K.

    ``tangents`` is one tangent per element (n_elements, d, d, d, d) or one
    (d, d, d, d) shared by all, taken as a grid of one cell, which gives the
    block-circulant K = S.  Each local vertex pair (a, b) of an orientation
    sits at a fixed vertex offset, so a vertex row holds one block per distinct
    offset (``MacroMesh.pair_blocks``): the pair's local blocks, rolled by
    corner a's grid position, are summed into those rows, and
    ``MacroMesh.stiffness_rows`` (a ``network.BlockRows``) writes K and S.
    """
    d, n, gb = mesh.d, mesh.n, mesh.grad_basis
    n_orient = len(gb)
    cells = (n,) * d if tangents.ndim == 5 else (1,) * d
    A = tangents.reshape(cells + (-1,) + (d,) * 4)    # shared: one orientation, broadcast
    # over j, then over m, on every grid (einsum's own search picks the order by shape)
    local = np.einsum("olj,...oijkm,opm->...olipk", gb, A, gb, optimize=["einsum_path", (0, 1), (0, 1)])
    local *= mesh.volumes[0]    # uniform mesh
    corners, axes = mesh.corners[:n_orient], tuple(range(d))     # the elements of cell 0, unwrapped
    rows = np.zeros(cells + (mesh.pair_blocks.max() + 1, d, d))   # rows[v, q] = K[(v, i), (v + offset q, k)]
    for o, a in np.ndindex(n_orient, d + 1):
        block = np.roll(local[..., o, a, :, :, :], tuple(corners[o, a]), axis=axes)
        for b in range(d + 1):
            rows[..., mesh.pair_blocks[o, a, b], :, :] += block[..., :, b, :]
    data = rows.swapaxes(-3, -2).reshape(-1, rows[(0,) * d].size)   # each row's (i, q, k), CSR order
    return mesh.stiffness_rows.matrix(data, d), mesh.stiffness_rows.stencil(data, d)
