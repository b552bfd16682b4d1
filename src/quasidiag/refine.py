"""Mesh refinement, marking, and the corner-singularity error indicator.

Refinement schemes by dimension:

* n = 2: newest-vertex bisection (NVB).  An element (a, b, c) carries its
  refinement edge as (a, b); the newest vertex sits last.  Bisection at the
  midpoint m of (a, b) produces (c, a, m) and (b, c, m), so each child's
  refinement edge is one of the remaining parent edges.  Uniform refinement
  is NVB with every edge marked: each element is bisected and then both
  children, yielding 4 children per element.
* n = 3: red refinement into 8 children: 4 corner tetrahedra plus a 4-way
  split of the interior octahedron along its shortest diagonal (ties broken
  by local index order).
* n = 4: midpoint refinement into 16 children, generated from the reference
  subdivision of the ordered simplex into half-scale path simplices.
  Children inherit the path ordering of their parent, which keeps the scheme
  conforming on Kuhn-type meshes such as :func:`quasidiag.mesh.initial_mesh`.

Adaptive refinement (2D only) combines :func:`singular_indicator`,
:func:`dorfler_mark` and :func:`nvb_refine`.

Every refiner keeps the coarse vertices as the first ones of the child and
gives the child its parent's ``ancestry`` plus one
:class:`quasidiag.mesh.RefinementStep`, the parent edge of each new vertex.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np
from scipy.sparse.linalg import splu

from .assembly import _p1_gradients, assemble_mass_p1
from .errors import DimensionError, UnsupportedDimension
from .mesh import RefinementStep, SimplicialMesh

# ---------------------------------------------------------------------------
# midpoint bookkeeping


def _append_midpoints(vertices: np.ndarray, edges: np.ndarray):
    """Create one new vertex per unique undirected edge.

    ``edges`` is an (m, 2) array of vertex ids.  Returns the grown vertex
    array, the (m,) array of midpoint ids, and the (lo, hi) parent edge of
    each new vertex, ordered so that new vertices follow ascending (lo, hi)
    edge keys; the layout is reproducible.
    """
    num_old = len(vertices)
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    keys = lo * np.int64(num_old) + hi
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    mids = 0.5 * (vertices[lo[first]] + vertices[hi[first]])
    grown = np.vstack([vertices, mids])
    return grown, num_old + inverse, np.column_stack([lo[first], hi[first]])


def _refined(mesh: SimplicialMesh, grown, elements, parent_edges) -> SimplicialMesh:
    """The child mesh, carrying ``mesh``'s ancestry plus this refinement."""
    child = SimplicialMesh(mesh.dim, grown, elements)
    parent_edges.setflags(write=False)
    child.ancestry = mesh.ancestry + (RefinementStep(mesh.num_vertices, parent_edges),)
    return child


# ---------------------------------------------------------------------------
# 2D newest-vertex bisection


def nvb_refine(mesh: SimplicialMesh, marked) -> SimplicialMesh:
    """Bisect the marked 2D elements, plus closure for conformity.

    Every marked element is bisected at least once; the recursive closure
    marks further refinement edges until no hanging node remains.  With
    ``marked`` empty the mesh is returned unchanged.
    """
    if mesh.dim != 2:
        raise UnsupportedDimension("nvb_refine requires a 2D mesh")
    marked = np.asarray(marked, dtype=np.int64).ravel()
    if marked.size == 0:
        return mesh
    if marked.min() < 0 or marked.max() >= mesh.num_elements:
        raise DimensionError("marked element index out of range")

    topo = mesh.facets
    ef = topo.element_facets
    marked_edge = np.zeros(len(topo), dtype=bool)
    marked_edge[ef[marked, 2]] = True
    # closure: an element with any marked edge must have its refinement edge
    # marked as well; iterate to the fixed point
    while True:
        need = marked_edge[ef].any(axis=1) & ~marked_edge[ef[:, 2]]
        if not need.any():
            break
        marked_edge[ef[need, 2]] = True
    return _bisect(mesh, marked_edge)


def _bisect(mesh: SimplicialMesh, marked_edge: np.ndarray) -> SimplicialMesh:
    """Split each element at the midpoints of its marked edges.

    ``marked_edge`` flags facets of ``mesh`` and must be closed: an element
    with a marked edge has its refinement edge marked.  An element whose
    three edges are marked gets four children.
    """
    topo = mesh.facets
    ef = topo.element_facets
    edge_ids = np.flatnonzero(marked_edge)
    grown, new_ids, parents = _append_midpoints(
        mesh.vertices, topo.vertex_ids[edge_ids]
    )
    midpoint_of = np.full(len(topo), -1, dtype=np.int64)
    midpoint_of[edge_ids] = new_ids

    a, b, c = mesh.elements.T
    m_bc, m_ca, m_ab = midpoint_of[ef].T
    has_ab, has_ca, has_bc = m_ab >= 0, m_ca >= 0, m_bc >= 0
    assert not (has_ca | has_bc)[~has_ab].any(), "closure must mark refinement edges"
    # four child slots per element; the first child (c, a, m_ab) owns edge
    # (c, a) and is split again when m_ca exists (slots 0-1), the second
    # (b, c, m_ab) owns (b, c) and is split when m_bc exists (slots 2-3)
    candidates = np.stack(
        [
            np.where(
                has_ab,
                np.where(has_ca, [m_ab, c, m_ca], [c, a, m_ab]),
                [a, b, c],
            ).T,
            np.stack([a, m_ab, m_ca], axis=1),
            np.where(has_bc, [m_ab, b, m_bc], [b, c, m_ab]).T,
            np.stack([c, m_ab, m_bc], axis=1),
        ],
        axis=1,
    )
    valid = np.stack([np.ones_like(has_ab), has_ca, has_ab, has_bc], axis=1)
    # row-major order lists each element's children together, in slot order
    return _refined(mesh, grown, candidates[valid], parents)


# ---------------------------------------------------------------------------
# 3D red refinement


_EDGES_3D = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
# octahedron splits per diagonal choice: (diagonal pair, cycle of the rest);
# consecutive cycle entries share a tetrahedron vertex
_OCTA_SPLITS = [
    ((0, 5), (1, 2, 4, 3)),  # diagonal m01-m23
    ((1, 4), (0, 2, 5, 3)),  # diagonal m02-m13
    ((2, 3), (0, 1, 5, 4)),  # diagonal m03-m12
]


def _uniform_refine_3d(mesh: SimplicialMesh) -> SimplicialMesh:
    el = mesh.elements
    nT = mesh.num_elements
    edges = np.concatenate([el[:, [i, j]] for i, j in _EDGES_3D])
    grown, mids, parents = _append_midpoints(mesh.vertices, edges)
    m = mids.reshape(6, nT).T  # columns follow _EDGES_3D order

    corners = np.empty((nT, 4, 4), dtype=np.int64)
    corners[:, 0] = np.column_stack([el[:, 0], m[:, 0], m[:, 1], m[:, 2]])
    corners[:, 1] = np.column_stack([el[:, 1], m[:, 0], m[:, 3], m[:, 4]])
    corners[:, 2] = np.column_stack([el[:, 2], m[:, 1], m[:, 3], m[:, 5]])
    corners[:, 3] = np.column_stack([el[:, 3], m[:, 2], m[:, 4], m[:, 5]])

    diag_sq = np.stack(
        [
            np.sum((grown[m[:, i]] - grown[m[:, j]]) ** 2, axis=1)
            for (i, j), _ in _OCTA_SPLITS
        ],
        axis=1,
    )
    choice = np.argmin(diag_sq, axis=1)  # first minimum wins ties

    octa_variants = []
    for (i, j), cycle in _OCTA_SPLITS:
        tets = np.empty((nT, 4, 4), dtype=np.int64)
        for t in range(4):
            c1, c2 = cycle[t], cycle[(t + 1) % 4]
            tets[:, t] = np.column_stack([m[:, i], m[:, j], m[:, c1], m[:, c2]])
        octa_variants.append(tets)
    octa = np.select(
        [choice[:, None, None] == k for k in range(3)], octa_variants
    )

    children = np.concatenate([corners, octa], axis=1)
    return _refined(mesh, grown, children.reshape(-1, 4), parents)


# ---------------------------------------------------------------------------
# dimension-generic midpoint refinement (used for n = 4)


@lru_cache(maxsize=None)
def _path_children_pattern(n: int):
    """Children of the ordered reference simplex under midpoint refinement.

    The reference simplex with vertices kappa_j = e_1 + ... + e_j (all
    coordinate-sorted points of the unit cube) is doubled; the integer path
    cells of the doubled cube that stay coordinate-sorted are exactly its
    2^n half-scale children.  Each child vertex is the midpoint of a parent
    vertex pair (a, b); the pattern is returned as 2^n tuples of n+1 pairs,
    with every child listed along its own path.
    """
    cells = []
    for offset in itertools.product((0, 1), repeat=n):
        for perm in itertools.permutations(range(n)):
            point = np.array(offset, dtype=np.int64)
            path = [point.copy()]
            for axis in perm:
                point = point.copy()
                point[axis] += 1
                path.append(point.copy())
            if all(np.all(u[:-1] >= u[1:]) for u in path):
                pairs = tuple(
                    (int(np.sum(u == 2)), int(np.sum(u >= 1))) for u in path
                )
                cells.append(pairs)
    assert len(cells) == 2**n
    return tuple(cells)


def _uniform_refine_midpoint(mesh: SimplicialMesh) -> SimplicialMesh:
    n = mesh.dim
    el = mesh.elements
    nT = mesh.num_elements
    pairs = [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
    edges = np.concatenate([el[:, [i, j]] for i, j in pairs])
    grown, mids, parents = _append_midpoints(mesh.vertices, edges)
    mid_of = {p: mids[k * nT : (k + 1) * nT] for k, p in enumerate(pairs)}

    pattern = _path_children_pattern(n)
    children = np.empty((nT, len(pattern), n + 1), dtype=np.int64)
    for c, child in enumerate(pattern):
        for k, (a, b) in enumerate(child):
            children[:, c, k] = el[:, a] if a == b else mid_of[(a, b)]
    return _refined(mesh, grown, children.reshape(-1, n + 1), parents)


def uniform_refine(mesh: SimplicialMesh) -> SimplicialMesh:
    """Replace every element by its 2^n children; conforming in all dims."""
    if mesh.dim == 2:
        return _bisect(mesh, np.ones(len(mesh.facets), dtype=bool))
    if mesh.dim == 3:
        return _uniform_refine_3d(mesh)
    if mesh.dim == 4:
        return _uniform_refine_midpoint(mesh)
    raise UnsupportedDimension(f"no refinement scheme for dim {mesh.dim}")


# ---------------------------------------------------------------------------
# bulk marking


def dorfler_mark(indicators, theta: float = 0.25) -> np.ndarray:
    """Smallest element set whose indicator sum reaches theta times the total.

    Indicators are sorted in descending order (ties by element index) and the
    shortest qualifying prefix is returned as a sorted id array.  An all-zero
    indicator vector yields an empty marking.
    """
    indicators = np.asarray(indicators, dtype=float).ravel()
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    if indicators.size and indicators.min() < 0.0:
        raise ValueError("indicators must be nonnegative")
    total = indicators.sum()
    if total == 0.0:
        return np.empty(0, dtype=np.int64)
    order = np.lexsort((np.arange(indicators.size), -indicators))
    partial = np.cumsum(indicators[order])
    count = int(np.searchsorted(partial, theta * total, side="left")) + 1
    count = min(count, indicators.size)
    return np.sort(order[:count])


# ---------------------------------------------------------------------------
# corner singularity and its indicator

_TWO_THIRDS = 2.0 / 3.0


def corner_singularity(points) -> np.ndarray:
    """r^(2/3) cos(2 phi / 3 - pi/6) with polar coordinates at the origin.

    Vanishes on both boundary arms of the reentrant corner (phi = -pi/2 and
    phi = pi) of the L-shaped domain.
    """
    points = np.asarray(points, dtype=float)
    r = np.hypot(points[..., 0], points[..., 1])
    phi = np.arctan2(points[..., 1], points[..., 0])
    return r**_TWO_THIRDS * np.cos(_TWO_THIRDS * phi - np.pi / 6.0)


def corner_singularity_gradient(points) -> np.ndarray:
    """Cartesian gradient of :func:`corner_singularity`; needs r > 0."""
    points = np.asarray(points, dtype=float)
    x, y = points[..., 0], points[..., 1]
    r = np.hypot(x, y)
    phi = np.arctan2(y, x)
    arg = _TWO_THIRDS * phi - np.pi / 6.0
    radial = _TWO_THIRDS * r ** (-1.0 / 3.0) * np.cos(arg)
    angular = -_TWO_THIRDS * r ** (-1.0 / 3.0) * np.sin(arg)
    gx = radial * np.cos(phi) - angular * np.sin(phi)
    gy = radial * np.sin(phi) + angular * np.cos(phi)
    return np.stack([gx, gy], axis=-1)


# Symmetric 6-point triangle rule, exact through degree 4; barycentric
# coordinates with weights normalized to sum to one.
_TRI_RULE_BARY = np.array(
    [
        [0.445948490915965, 0.445948490915965, 0.108103018168070],
        [0.445948490915965, 0.108103018168070, 0.445948490915965],
        [0.108103018168070, 0.445948490915965, 0.445948490915965],
        [0.091576213509771, 0.091576213509771, 0.816847572980459],
        [0.091576213509771, 0.816847572980459, 0.091576213509771],
        [0.816847572980459, 0.091576213509771, 0.091576213509771],
    ]
)
_TRI_RULE_W = np.array(
    [
        0.223381589678011,
        0.223381589678011,
        0.223381589678011,
        0.109951743655322,
        0.109951743655322,
        0.109951743655322,
    ]
)

_CORNER_LEVELS = 4
_CORNER_RATIO = 0.25


def _corner_rules():
    """Barycentric rules of the graded corner subdivision, one per corner.

    With the corner at local vertex k, the element is o + s p + t q with
    o its corner, p and q the edges to the next two vertices.  Rings in
    (s, t) shrink by the factor 1/4 per level; the innermost scaled copy is
    kept whole.  Each of the 2 * levels + 1 sub-triangles carries the
    6-point rule, so a rule is (54, 3) barycentric points and (54,) weights
    that sum to one.
    """
    subs = []
    outer = 1.0
    for _ in range(_CORNER_LEVELS):
        inner = outer * _CORNER_RATIO
        subs.append([(inner, 0.0), (outer, 0.0), (0.0, outer)])
        subs.append([(inner, 0.0), (0.0, outer), (0.0, inner)])
        outer = inner
    subs.append([(0.0, 0.0), (outer, 0.0), (0.0, outer)])
    subs = np.array(subs)  # (9, 3, 2) in (s, t)
    st = np.einsum("qk,jkd->jqd", _TRI_RULE_BARY, subs).reshape(-1, 2)
    u, v = subs[:, 1] - subs[:, 0], subs[:, 2] - subs[:, 0]
    area_share = np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])  # 2 |sub|
    weights = np.outer(area_share, _TRI_RULE_W).ravel()
    rules = []
    for k in range(3):
        lam = np.empty((len(st), 3))
        lam[:, k] = 1.0 - st.sum(axis=1)
        lam[:, (k + 1) % 3] = st[:, 0]
        lam[:, (k + 2) % 3] = st[:, 1]
        rules.append((lam, weights))
    return tuple(rules)


_CORNER_RULES = _corner_rules()


def h1_projection_indicator(
    mesh: SimplicialMesh, fn, grad_fn, singular_point=None
) -> np.ndarray:
    """Per-element squared H1 distance between ``fn`` and its L2 projection.

    The target function is projected onto continuous piecewise linears over
    the whole mesh (no boundary conditions) with a global mass-matrix solve;
    the indicator of element T is the squared L2 norm of the deficit plus
    the squared L2 norm of its gradient on T.  Elements touching
    ``singular_point`` are integrated on a geometrically graded subdivision.
    ``fn`` and ``grad_fn`` take points of shape (..., 2) and return values
    of shape (...) and gradients of shape (..., 2).
    """
    if mesh.dim != 2:
        raise UnsupportedDimension("the H1 indicator is implemented for 2D meshes")

    coords = mesh.vertices[mesh.elements]
    # rule 0 is the 6-point rule, rule 1 + k the subdivision towards vertex k
    rule_of = np.zeros(mesh.num_elements, dtype=np.int64)
    if singular_point is not None:
        dist = np.linalg.norm(coords - singular_point, axis=2)
        corner = np.argmin(dist, axis=1)
        touches = dist.min(axis=1) <= 1e-12 * np.maximum(1.0, dist.max(axis=1))
        rule_of[touches] = 1 + corner[touches]
    rules = ((_TRI_RULE_BARY, _TRI_RULE_W),) + _CORNER_RULES
    groups = []
    local = np.empty((mesh.num_elements, 3))
    for r, (lam, w) in enumerate(rules):
        ids = np.flatnonzero(rule_of == r)
        if ids.size:
            pts = np.einsum("qi,tid->tqd", lam, coords[ids])
            wts, values = w * mesh.volumes[ids, None], fn(pts)
            local[ids] = (wts * values) @ lam
            groups.append((ids, lam, wts, pts, values))
    rhs = np.zeros(mesh.num_vertices)
    np.add.at(rhs, mesh.elements, local)
    nodal = splu(assemble_mass_p1(mesh).tocsc()).solve(rhs)[mesh.elements]

    grad_nodal = np.einsum("ti,tid->td", nodal, _p1_gradients(mesh))
    mu = np.empty(mesh.num_elements)
    for ids, lam, wts, pts, values in groups:
        deficit = values - nodal[ids] @ lam.T
        grad_deficit = grad_fn(pts) - grad_nodal[ids, None, :]
        squared = deficit**2 + np.sum(grad_deficit**2, axis=2)
        mu[ids] = np.sum(wts * squared, axis=1)
    return mu


def singular_indicator(mesh: SimplicialMesh) -> np.ndarray:
    """H1 projection indicator for the reentrant-corner singular function."""
    return h1_projection_indicator(
        mesh,
        corner_singularity,
        corner_singularity_gradient,
        singular_point=np.zeros(2),
    )


def adaptive_refine(mesh: SimplicialMesh, theta: float = 0.25) -> SimplicialMesh:
    """One singular-indicator / bulk-marking / NVB step on a 2D mesh."""
    marked = dorfler_mark(singular_indicator(mesh), theta)
    return nvb_refine(mesh, marked)
