"""Simplicial meshes in dimension n = 2, 3, 4: geometry, facets, initial meshes.

A mesh stores vertices as an (nV, n) float array and elements as an
(nT, n+1) array of vertex indices.  Volumes and diameters are computed on
construction; facet topology is derived on first access and cached.  A
constructed mesh is immutable (its arrays are marked read-only), so it can be
shared freely between concurrent readers.

Three built-in coarse meshes are provided by :func:`initial_mesh`:

* n = 2: the L-shaped domain (-1,1)^2 minus the closed lower-left quadrant,
  split into 12 triangles of area 1/4 (each unit square criss-crossed about
  its centre),
* n = 3: the L-shaped prism of height 1 over the same domain, split into 24
  tetrahedra of total volume 3,
* n = 4: the unit 4-cube split into its 24 permutation simplices of volume
  1/24 each.

Element ordering conventions:

* n = 2: the first two vertices of an element span its refinement edge (the
  newest vertex sits last); :func:`initial_mesh` emits the longest edge first.
* n = 3, 4: every element lists its vertex ids in ascending order, so the
  ids are a global vertex order, the one the path subdivision of
  :mod:`quasidiag.refine` needs to stay conforming.  In 3d the prism over
  a footprint triangle (a, b, c), a < b < c, is cut into (a, b, c, c'),
  (a, b, b', c') and (a, a', b', c'), where v' = v + 9 is the top copy of
  bottom vertex v; in 4d each Kuhn path only sets coordinate bits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import (
    DegenerateSimplex,
    DimensionError,
    NonManifoldMesh,
    UnsupportedDimension,
)

SUPPORTED_DIMS = (2, 3, 4)

# relative volume below which a simplex counts as flat
DEGENERACY_RTOL = 1e-14

# relative gap in volume or boundary measure that :func:`validate_mesh`
# reports as non-conforming
CONFORMITY_RTOL = 1e-12


def _pairwise_diameter(points: np.ndarray) -> np.ndarray:
    """Max pairwise vertex distance for a stack of point sets (m, k, n)."""
    m, k, _ = points.shape
    diam = np.zeros(m)
    for i, j in itertools.combinations(range(k), 2):
        np.maximum(diam, np.linalg.norm(points[:, i] - points[:, j], axis=1), out=diam)
    return diam


class FacetTopology:
    """All facets of a mesh in deterministic order.

    Facets are sorted lexicographically by their sorted vertex tuple.  An
    interior facet stores its two adjacent elements with the smaller element
    index as ``plus``; boundary facets carry ``minus == -1``.
    ``element_facets[e, k]`` is the facet opposite local vertex ``k`` of
    element ``e``.
    """

    def __init__(self, vertex_ids, plus, minus, measure, element_facets):
        self.vertex_ids = vertex_ids
        self.plus = plus
        self.minus = minus
        self.measure = measure
        self.element_facets = element_facets
        for arr in (vertex_ids, plus, minus, measure, element_facets):
            arr.setflags(write=False)
        self.is_boundary = minus < 0
        self.is_boundary.setflags(write=False)

    def __len__(self) -> int:
        return self.vertex_ids.shape[0]


@dataclass(frozen=True)
class RefinementStep:
    """One refinement of a nested mesh hierarchy.

    The coarse mesh has ``num_coarse`` vertices, which the fine mesh keeps
    as its first ones; fine vertex ``num_coarse + i`` is the midpoint of the
    coarse edge ``parent_edges[i]`` (an (m, 2) array, read-only).
    """

    num_coarse: int
    parent_edges: np.ndarray


class SimplicialMesh:
    """Conforming simplicial mesh of dimension n in {2, 3, 4}.

    Attributes
    ----------
    dim : int
        Space dimension n.
    vertices : ndarray, shape (nV, n)
    elements : ndarray, shape (nT, n+1)
        Vertex indices per element; ordering conventions are described in the
        module docstring.
    volumes, diameters : ndarray, shape (nT,)
        Cached per-element volume |T| and diameter h_T.
    ancestry : tuple of RefinementStep
        The refinements that produced this mesh from a mesh built directly,
        coarsest first; attached by the refiners of :mod:`quasidiag.refine`
        and empty for a mesh built directly.
    """

    def __init__(self, dim: int, vertices, elements):
        if dim not in SUPPORTED_DIMS:
            raise UnsupportedDimension(f"dim must be one of {SUPPORTED_DIMS}, got {dim}")
        vertices = np.ascontiguousarray(vertices, dtype=float)
        elements = np.ascontiguousarray(elements, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != dim:
            raise DimensionError(f"vertices must have shape (nV, {dim})")
        if elements.ndim != 2 or elements.shape[1] != dim + 1:
            raise DimensionError(f"elements must have shape (nT, {dim + 1})")
        if elements.size and (elements.min() < 0 or elements.max() >= len(vertices)):
            raise DimensionError("element vertex index out of range")
        sorted_rows = np.sort(elements, axis=1)
        if elements.size and np.any(sorted_rows[:, 1:] == sorted_rows[:, :-1]):
            raise DegenerateSimplex("element with repeated vertex")

        self.dim = dim
        self.vertices = vertices
        self.elements = elements
        coords = vertices[elements]
        dets = np.linalg.det(coords[:, 1:, :] - coords[:, :1, :])
        self.volumes = np.abs(dets) / factorial(dim)
        self.diameters = _pairwise_diameter(coords)
        flat = self.volumes <= DEGENERACY_RTOL * self.diameters**dim
        if np.any(flat):
            e = int(np.argmax(flat))
            raise DegenerateSimplex(
                f"element {e} is flat (volume {self.volumes[e]:.3e})"
            )
        for arr in (self.vertices, self.elements, self.volumes, self.diameters):
            arr.setflags(write=False)
        self.ancestry: tuple[RefinementStep, ...] = ()
        self._facets: FacetTopology | None = None

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def facets(self) -> FacetTopology:
        if self._facets is None:
            self._facets = enumerate_facets(self)
        return self._facets

    def total_volume(self) -> float:
        return float(self.volumes.sum())

    def __repr__(self) -> str:
        return (
            f"SimplicialMesh(dim={self.dim}, nV={self.num_vertices}, "
            f"nT={self.num_elements})"
        )


def enumerate_facets(mesh: SimplicialMesh) -> FacetTopology:
    """Match the n-vertex subsets of all elements into facets.

    Every facet must be shared by one or two elements; a third owner raises
    :class:`NonManifoldMesh`.  The returned facets are ordered by their
    sorted vertex tuples, which makes the enumeration reproducible.
    """
    n = mesh.dim
    nT = mesh.num_elements
    local_subsets = [[i for i in range(n + 1) if i != k] for k in range(n + 1)]
    stacked = np.concatenate([mesh.elements[:, idx] for idx in local_subsets])
    owner = np.tile(np.arange(nT), n + 1)
    local_k = np.repeat(np.arange(n + 1), nT)

    keys = np.sort(stacked, axis=1)
    order = np.lexsort(keys.T[::-1])
    keys_sorted = keys[order]
    owner_sorted = owner[order]
    k_sorted = local_k[order]

    new_group = np.ones(len(keys_sorted), dtype=bool)
    if len(keys_sorted) > 1:
        new_group[1:] = np.any(keys_sorted[1:] != keys_sorted[:-1], axis=1)
    group_id = np.cumsum(new_group) - 1
    num_facets = int(group_id[-1]) + 1 if len(group_id) else 0
    counts = np.bincount(group_id, minlength=num_facets)
    if np.any(counts > 2):
        g = int(np.argmax(counts > 2))
        row = keys_sorted[np.searchsorted(group_id, g)]
        raise NonManifoldMesh(f"facet {tuple(row)} adjacent to {counts[g]} elements")

    starts = np.searchsorted(group_id, np.arange(num_facets))
    vertex_ids = keys_sorted[starts]
    plus = np.empty(num_facets, dtype=np.int64)
    minus = np.full(num_facets, -1, dtype=np.int64)
    first_owner = owner_sorted[starts]
    plus[:] = first_owner
    second = counts == 2
    second_owner = owner_sorted[starts[second] + 1]
    plus[second] = np.minimum(first_owner[second], second_owner)
    minus[second] = np.maximum(first_owner[second], second_owner)

    element_facets = np.empty((nT, n + 1), dtype=np.int64)
    element_facets[owner_sorted, k_sorted] = group_id

    # Gram determinant of the edge vectors, |F| = sqrt(det(E E^T)) / (n-1)!
    coords = mesh.vertices[vertex_ids]
    edges = coords[:, 1:, :] - coords[:, :1, :]
    dets = np.linalg.det(edges @ edges.transpose(0, 2, 1))
    measure = np.sqrt(np.maximum(dets, 0.0)) / factorial(n - 1)
    if np.any(measure <= 0.0):
        f = int(np.argmax(measure <= 0.0))
        raise DegenerateSimplex(f"facet {tuple(vertex_ids[f])} is flat")
    return FacetTopology(vertex_ids, plus, minus, measure, element_facets)


def boundary_measure(mesh: SimplicialMesh) -> float:
    """Total (n-1)-measure of the boundary facets."""
    f = mesh.facets
    return float(f.measure[f.is_boundary].sum())


def validate_mesh(mesh: SimplicialMesh, domain: SimplicialMesh) -> None:
    """Check that ``mesh`` is a conforming mesh of ``domain``'s region.

    ``domain`` is any conforming mesh of the same region, usually the coarse
    mesh that ``mesh`` was refined from.  Facet matching (one or two owners
    per facet) runs through ``mesh.facets``.  A refinement that tiles the
    region is conforming exactly when its volume equals |Omega| and its
    boundary-facet measure equals |dOmega|: a facet that does not match the
    pieces on its other side has one owner, and so do the pieces, so both
    count as boundary and add twice the facet's measure.  Raises
    :class:`NonManifoldMesh` when either differs from ``domain``'s by more
    than ``CONFORMITY_RTOL`` relative.
    """
    for name, got, want in (
        ("boundary measure", boundary_measure(mesh), boundary_measure(domain)),
        ("volume", mesh.total_volume(), domain.total_volume()),
    ):
        if abs(got - want) > CONFORMITY_RTOL * want:
            raise NonManifoldMesh(f"{name} {got!r} differs from the domain's {want!r}")


# ---------------------------------------------------------------------------
# initial meshes


def _initial_mesh_2d() -> SimplicialMesh:
    vertices = np.array(
        [
            [-1.0, 0.0],
            [-1.0, 1.0],
            [0.0, -1.0],
            [0.0, 0.0],
            [0.0, 1.0],
            [1.0, -1.0],
            [1.0, 0.0],
            [1.0, 1.0],
            [-0.5, 0.5],
            [0.5, -0.5],
            [0.5, 0.5],
        ]
    )
    # each unit square criss-crossed about its centre; the square side is the
    # longest edge of every triangle, hence the refinement edge sits first
    squares = [
        ([0, 3, 4, 1], 8),   # [-1,0] x [0,1]
        ([3, 6, 7, 4], 10),  # [0,1] x [0,1]
        ([2, 5, 6, 3], 9),   # [0,1] x [-1,0]
    ]
    elements = []
    for corners, centre in squares:
        for a, b in zip(corners, corners[1:] + corners[:1]):
            elements.append((a, b, centre))
    return SimplicialMesh(2, vertices, np.array(elements))


def _initial_mesh_3d() -> SimplicialMesh:
    # footprint of the L-shape with 8 triangles: the corner square is
    # criss-crossed, the two arm squares are split along the diagonal through
    # the reentrant corner; extruding each triangle to a prism and cutting it
    # into 3 staircase tetrahedra yields 24 tetrahedra of total volume 3
    base = np.array(
        [
            [-1.0, 0.0],
            [-1.0, 1.0],
            [0.0, -1.0],
            [0.0, 0.0],
            [0.0, 1.0],
            [1.0, -1.0],
            [1.0, 0.0],
            [1.0, 1.0],
            [0.5, 0.5],
        ]
    )
    footprint = [
        (3, 1, 0),
        (3, 4, 1),
        (3, 6, 8),
        (6, 7, 8),
        (7, 4, 8),
        (4, 3, 8),
        (3, 5, 2),
        (3, 6, 5),
    ]
    nb = len(base)
    bottom = np.column_stack([base, np.zeros(nb)])
    top = np.column_stack([base, np.ones(nb)])
    vertices = np.vstack([bottom, top])
    elements = []
    for tri in footprint:
        a, b, c = sorted(tri)
        # staircase split of the prism over (a, b, c); the wall over edge
        # (u, v), u < v, is always cut by the diagonal bottom(u)-top(v),
        # which matches between neighbouring prisms
        elements.append((a, b, c, c + nb))
        elements.append((a, b, b + nb, c + nb))
        elements.append((a, a + nb, b + nb, c + nb))
    return SimplicialMesh(3, vertices, np.array(elements))


def _initial_mesh_4d() -> SimplicialMesh:
    corners = np.array(list(itertools.product([0.0, 1.0], repeat=4)))
    # corner (b3, b2, b1, b0) produced by product() has index with b3 slowest;
    # index corners explicitly to keep ids stable
    index = {tuple(c): i for i, c in enumerate(corners)}
    elements = []
    for perm in itertools.permutations(range(4)):
        point = np.zeros(4)
        path = [index[tuple(point)]]
        for axis in perm:
            point = point.copy()
            point[axis] += 1.0
            path.append(index[tuple(point)])
        elements.append(path)
    return SimplicialMesh(4, corners, np.array(elements))


def initial_mesh(dim: int) -> SimplicialMesh:
    """Coarse mesh of the canonical domain in dimension ``dim``.

    Returns the 12-triangle L-shape for n=2, the 24-tetrahedron L-prism for
    n=3 and the 24-simplex unit 4-cube for n=4.
    """
    if dim == 2:
        return _initial_mesh_2d()
    if dim == 3:
        return _initial_mesh_3d()
    if dim == 4:
        return _initial_mesh_4d()
    raise UnsupportedDimension(f"dim must be one of {SUPPORTED_DIMS}, got {dim}")
