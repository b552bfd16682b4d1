"""Finite-element bases and matrix assembly on simplicial meshes.

Two families of discrete functions appear:

* continuous piecewise linears (P1) over the mesh vertices, either over all
  vertices ("free") or with every boundary vertex removed ("dirichlet");
* discontinuous piecewise polynomials of degree p in {0, 1}, stored as one
  characteristic function per element followed, for p = 1, by n mean-zero
  bubbles chi_{T,j} = lambda_j - 1/(n+1) per element.

All integrands are polynomial, so every matrix entry is evaluated in closed
form through the barycentric moment formula

    int_T lambda^a dx = a_1! ... a_m! n! |T| / (n + |a|)!

and symmetric matrices are built from canonical upper-triangle triplets so
that the stored values are exactly symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DimensionError, EmptySpace
from .mesh import SimplicialMesh

BOUNDARY_CONDITIONS = ("dirichlet", "free")


# ---------------------------------------------------------------------------
# vertex bookkeeping


def _on_boundary(mesh: SimplicialMesh) -> np.ndarray:
    """Boolean mask over the vertices: True on some boundary facet."""
    topo = mesh.facets
    mask = np.zeros(mesh.num_vertices, dtype=bool)
    mask[topo.vertex_ids[topo.is_boundary]] = True
    return mask


def boundary_vertices(mesh: SimplicialMesh) -> np.ndarray:
    """Sorted ids of all vertices lying on some boundary facet."""
    return np.flatnonzero(_on_boundary(mesh)).astype(np.int64, copy=False)


def p1_vertex_ids(mesh: SimplicialMesh, boundary_condition: str) -> np.ndarray:
    """Vertex ids spanning the requested P1 space, ascending.

    The dirichlet variant removes every boundary vertex and raises
    :class:`EmptySpace` when nothing remains.
    """
    if boundary_condition == "free":
        return np.arange(mesh.num_vertices, dtype=np.int64)
    if boundary_condition != "dirichlet":
        raise DimensionError(
            f"boundary condition must be one of {BOUNDARY_CONDITIONS}, "
            f"got {boundary_condition!r}"
        )
    keep = np.flatnonzero(~_on_boundary(mesh)).astype(np.int64, copy=False)
    if keep.size == 0:
        raise EmptySpace("all vertices lie on the boundary")
    return keep


# ---------------------------------------------------------------------------
# symmetric assembly plumbing


def _symmetric_from_triplets(rows, cols, vals, size: int) -> sp.csr_matrix:
    """Assemble exactly symmetric CSR from one-sided triplet data.

    Each unordered off-diagonal pair must be supplied exactly once (either
    orientation); it is folded onto the upper triangle and mirrored, so
    (i, j) and (j, i) of the result hold the identical accumulated float.
    """
    rows = np.asarray(rows, dtype=np.int64).ravel()
    cols = np.asarray(cols, dtype=np.int64).ravel()
    vals = np.asarray(vals, dtype=float).ravel()
    swap = rows > cols
    r = np.where(swap, cols, rows)
    c = np.where(swap, rows, cols)
    upper = sp.coo_matrix((vals, (r, c)), shape=(size, size)).tocsr()
    upper.sum_duplicates()
    diag = sp.diags(upper.diagonal(), format="csr", shape=(size, size))
    strict = (upper - diag).tocsr()
    out = (strict + strict.T + diag).tocsr()
    out.sum_duplicates()
    return out


def _p1_gradients(mesh: SimplicialMesh) -> np.ndarray:
    """Constant gradients of the barycentric coordinates, (nT, n+1, n)."""
    coords = mesh.vertices[mesh.elements]
    edge = np.swapaxes(coords[:, 1:, :] - coords[:, :1, :], 1, 2)
    inv = np.linalg.inv(edge)  # rows of inv are grad lambda_1..n
    grad0 = -inv.sum(axis=1, keepdims=True)
    return np.concatenate([grad0, inv], axis=1)


def assemble_stiffness(mesh: SimplicialMesh):
    """P1 stiffness matrix over all vertices."""
    grads = _p1_gradients(mesh)
    local = np.einsum(
        "t,tid,tjd->tij", mesh.volumes, grads, grads, optimize=True
    )
    li, lj = np.triu_indices(mesh.dim + 1)
    rows = mesh.elements[:, li].ravel()
    cols = mesh.elements[:, lj].ravel()
    return _symmetric_from_triplets(
        rows, cols, local[:, li, lj].ravel(), mesh.num_vertices
    )


def assemble_mass_p1(mesh: SimplicialMesh):
    """Consistent P1 mass matrix |T|(1 + delta_ij)/((n+1)(n+2))."""
    n = mesh.dim
    pattern = (1.0 + np.eye(n + 1)) / ((n + 1) * (n + 2))
    local = mesh.volumes[:, None, None] * pattern
    li, lj = np.triu_indices(n + 1)
    rows = mesh.elements[:, li].ravel()
    cols = mesh.elements[:, lj].ravel()
    return _symmetric_from_triplets(
        rows, cols, local[:, li, lj].ravel(), mesh.num_vertices
    )


def assemble_R(mesh: SimplicialMesh, boundary_condition: str):
    """Gram matrix of the P1 inner solve.

    dirichlet: stiffness on interior vertices (H1 seminorm, SPD).
    free: stiffness plus mass over all vertices (full H1 norm, SPD).
    """
    keep = p1_vertex_ids(mesh, boundary_condition)
    if boundary_condition == "free":
        return (assemble_stiffness(mesh) + assemble_mass_p1(mesh)).tocsr()
    return assemble_stiffness(mesh)[keep][:, keep].tocsr()


# ---------------------------------------------------------------------------
# piecewise-polynomial basis


def make_p1_bubbles(dim: int, volume: float):
    """Mean-zero local bubbles chi_j = lambda_j - 1/(n+1), j = 1..n.

    Returns the (n, n+1) barycentric coefficient matrix (row j-1 expresses
    chi_j in the lambda basis) and the n exact squared L2(T) norms, which
    all equal n |T| / ((n+1)^2 (n+2)).
    """
    n = dim
    coeffs = np.eye(n + 1)[1:] - 1.0 / (n + 1)
    norms_sq = np.full(n, n * volume / ((n + 1) ** 2 * (n + 2)))
    return coeffs, norms_sq


@dataclass(frozen=True)
class BasisSet:
    """Discontinuous P^p basis: element characteristics plus p=1 bubbles.

    Coefficient layout: first one characteristic function per element (in
    element order), then for p = 1 all bubbles in (element, bubble)
    lexicographic order.
    """

    mesh: SimplicialMesh
    degree: int
    bubble_coeffs: np.ndarray | None = field(repr=False)
    bubble_norms_sq: np.ndarray | None = field(repr=False)

    @property
    def fields_per_element(self) -> int:
        return math.comb(self.degree + self.mesh.dim, self.degree)

    @property
    def size(self) -> int:
        return self.fields_per_element * self.mesh.num_elements


def basis_set(mesh: SimplicialMesh, degree: int) -> BasisSet:
    """Basis of piecewise polynomials of total degree ``degree`` in {0, 1}."""
    if degree not in (0, 1):
        raise DimensionError(f"only degrees 0 and 1 are supported, got {degree}")
    if degree == 0:
        return BasisSet(mesh, 0, None, None)
    coeffs, unit_norms = make_p1_bubbles(mesh.dim, 1.0)
    norms_sq = mesh.volumes[:, None] * unit_norms[None, :]
    return BasisSet(mesh, 1, coeffs, norms_sq)


def assemble_M(mesh: SimplicialMesh, basis: BasisSet, boundary_condition: str):
    """Pairing of the P1 space with the piecewise basis, <chi, eta>.

    Rows follow :func:`p1_vertex_ids`, which raises :class:`EmptySpace` on
    an empty dirichlet space; columns follow the BasisSet layout.
    """
    n = mesh.dim
    nT = mesh.num_elements
    keep = p1_vertex_ids(mesh, boundary_condition)
    row_of = np.full(mesh.num_vertices, -1, dtype=np.int64)
    row_of[keep] = np.arange(keep.size)

    rows = []
    cols = []
    vals = []

    # characteristic columns: int_T eta_i = |T|/(n+1)
    const_val = mesh.volumes / (n + 1)
    for i in range(n + 1):
        rows.append(row_of[mesh.elements[:, i]])
        cols.append(np.arange(nT, dtype=np.int64))
        vals.append(const_val)

    if basis.degree == 1:
        # int_T chi_j eta_i = |T| ((n+1) delta_ij - 1) / ((n+1)^2 (n+2))
        pattern = ((n + 1) * np.eye(n + 1)[:, 1:] - 1.0) / ((n + 1) ** 2 * (n + 2))
        for i in range(n + 1):
            for j in range(n):
                rows.append(row_of[mesh.elements[:, i]])
                cols.append(nT + n * np.arange(nT, dtype=np.int64) + j)
                vals.append(mesh.volumes * pattern[i, j])

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    inside = rows >= 0
    return sp.coo_matrix(
        (vals[inside], (rows[inside], cols[inside])), shape=(keep.size, basis.size)
    ).tocsr()


def assemble_L(mesh: SimplicialMesh, basis: BasisSet):
    """Weighted piecewise mass matrix <htilde^2 chi, chi>, htilde = |T|^(1/n).

    Block diagonal per element; characteristic/bubble cross blocks vanish
    exactly, so they are never stored.
    """
    n = mesh.dim
    nT = mesh.num_elements
    weight = mesh.volumes ** (2.0 / n)
    rows = [np.arange(nT, dtype=np.int64)]
    cols = [np.arange(nT, dtype=np.int64)]
    vals = [weight * mesh.volumes]

    if basis.degree == 1:
        # int_T chi_j chi_k = |T| ((n+1) delta_jk - 1) / ((n+1)^2 (n+2))
        pattern = ((n + 1) * np.eye(n) - 1.0) / ((n + 1) ** 2 * (n + 2))
        base = nT + n * np.arange(nT, dtype=np.int64)
        scale = weight * mesh.volumes
        for j in range(n):
            for k in range(j, n):
                rows.append(base + j)
                cols.append(base + k)
                vals.append(scale * pattern[j, k])

    return _symmetric_from_triplets(
        np.concatenate(rows), np.concatenate(cols), np.concatenate(vals), basis.size
    )
