"""Mesh geometry, facet topology and initial meshes."""

import numpy as np
import pytest
from conftest import cayley_menger_measure, shape_gamma
from hypothesis import given, strategies as st

from quasidiag import (
    SimplicialMesh,
    boundary_measure,
    enumerate_facets,
    initial_mesh,
    uniform_refine,
    validate_mesh,
)
from quasidiag.errors import (
    DegenerateSimplex,
    DimensionError,
    NonManifoldMesh,
    UnsupportedDimension,
)


def one_simplex(points):
    """Mesh of the single simplex spanned by ``points`` in their order."""
    points = np.asarray(points, dtype=float)
    return SimplicialMesh(points.shape[-1], points, [np.arange(len(points))])


def volume(points):
    return one_simplex(points).volumes[0]


def measure_of_facet(points, apex):
    """Measure of the facet ``points`` of the simplex they span with ``apex``."""
    topo = enumerate_facets(one_simplex(np.vstack([points, apex])))
    return topo.measure[topo.element_facets[0, -1]]


# ---------------------------------------------------------------------------
# element volumes


def test_unit_right_triangle_volume():
    assert volume([[0, 0], [1, 0], [0, 1]]) == pytest.approx(0.5, rel=1e-15)


def test_kuhn_4simplex_volume():
    pts = [
        [0, 0, 0, 0],
        [1, 0, 0, 0],
        [1, 1, 0, 0],
        [1, 1, 1, 0],
        [1, 1, 1, 1],
    ]
    assert volume(pts) == pytest.approx(1.0 / 24.0, rel=1e-14)


def test_collinear_triangle_raises():
    with pytest.raises(DegenerateSimplex):
        volume([[0, 0], [1, 1], [2, 2]])


def test_volume_shape_check():
    with pytest.raises(DimensionError):
        volume([[0, 0], [1, 0]])


@given(
    shift=st.lists(st.floats(-50, 50), min_size=2, max_size=2),
    scale=st.floats(0.01, 100.0),
)
def test_volume_translation_and_scaling(shift, scale):
    base = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.7]])
    v0 = volume(base)
    moved = base * scale + np.asarray(shift)
    assert volume(moved) == pytest.approx(v0 * scale**2, rel=1e-9)


@given(perm=st.permutations(list(range(4))))
def test_volume_vertex_order_invariance(perm):
    pts = np.array(
        [[0.0, 0.0, 0.0], [2.0, 0.1, 0.0], [0.3, 1.5, 0.2], [0.1, 0.2, 1.1]]
    )
    assert volume(pts[perm]) == pytest.approx(volume(pts), rel=1e-12)


def test_volume_matches_cayley_menger():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        pts = rng.random((n + 1, n)) * 2.0
        assert volume(pts) == pytest.approx(cayley_menger_measure(pts), rel=1e-9)


# ---------------------------------------------------------------------------
# facet measures


def test_segment_measure():
    got = measure_of_facet([[0, 0], [1, 1]], [1, 0])
    assert got == pytest.approx(np.sqrt(2.0), rel=1e-15)


def test_triangle_in_3d_measure():
    pts = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    assert measure_of_facet(pts, [0, 0, 1]) == pytest.approx(0.5, rel=1e-15)


def test_tetrahedron_facet_in_4d_measure():
    e = np.eye(4)
    pts = e[[0, 1, 2, 3]]
    got = measure_of_facet(pts, np.zeros(4))
    assert got == pytest.approx(cayley_menger_measure(pts), rel=1e-12)
    assert got == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_facet_measure_random_matches_cayley_menger():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4):
        mesh = one_simplex(rng.random((n + 1, n)) + 0.5 * np.eye(n + 1, n))
        topo = enumerate_facets(mesh)
        assert len(topo) == n + 1
        for ids, got in zip(topo.vertex_ids, topo.measure):
            want = cayley_menger_measure(mesh.vertices[ids])
            assert got == pytest.approx(want, rel=1e-8)


def test_flat_facet_raises():
    with pytest.raises(DegenerateSimplex):
        one_simplex(
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        )


# ---------------------------------------------------------------------------
# facet enumeration


def two_triangle_square():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    elements = np.array([[0, 2, 1], [0, 2, 3]])
    return SimplicialMesh(2, vertices, elements)


def test_single_triangle_all_boundary():
    mesh = SimplicialMesh(2, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [[0, 1, 2]])
    topo = mesh.facets
    assert len(topo) == 3
    assert topo.is_boundary.sum() == 3
    assert np.all(topo.minus == -1)


def test_shared_edge_adjacency():
    topo = two_triangle_square().facets
    assert len(topo) == 5
    interior = np.flatnonzero(~topo.is_boundary)
    assert len(interior) == 1
    facet = interior[0]
    assert tuple(topo.vertex_ids[facet]) == (0, 2)
    assert topo.plus[facet] == 0 and topo.minus[facet] == 1
    assert topo.measure[facet] == pytest.approx(np.sqrt(2.0), rel=1e-15)


def test_lshape_facet_counts(lshape2d):
    topo = lshape2d.facets
    assert len(topo) == 22
    assert topo.is_boundary.sum() == 8
    assert (~topo.is_boundary).sum() == 14


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_handshake_identity(dim):
    mesh = initial_mesh(dim)
    topo = mesh.facets
    num_boundary = topo.is_boundary.sum()
    num_interior = len(topo) - num_boundary
    assert (dim + 1) * mesh.num_elements == 2 * num_interior + num_boundary


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_element_facets_map(dim):
    mesh = initial_mesh(dim)
    topo = mesh.facets
    for e in range(mesh.num_elements):
        for k in range(dim + 1):
            fid = topo.element_facets[e, k]
            expected = sorted(np.delete(mesh.elements[e], k))
            assert list(topo.vertex_ids[fid]) == expected


def test_plus_element_is_smaller_index(lshape2d):
    topo = lshape2d.facets
    interior = ~topo.is_boundary
    assert np.all(topo.plus[interior] < topo.minus[interior])


def test_facet_enumeration_deterministic(lshape2d):
    a = enumerate_facets(lshape2d)
    b = enumerate_facets(lshape2d)
    assert np.array_equal(a.vertex_ids, b.vertex_ids)
    assert np.array_equal(a.plus, b.plus)
    assert np.array_equal(a.minus, b.minus)
    assert np.array_equal(a.measure, b.measure)


def test_nonmanifold_raises():
    vertices = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
         [0.0, 0.0, -1.0], [1.0, 1.0, 1.0]]
    )
    elements = np.array([[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]])
    mesh = SimplicialMesh(3, vertices, elements)
    with pytest.raises(NonManifoldMesh):
        enumerate_facets(mesh)


def test_hanging_vertex_detected():
    vertices = np.array(
        [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [1.0, 0.0], [2.0, -1.0]]
    )
    elements = np.array([[0, 1, 2], [0, 3, 4]])
    mesh = SimplicialMesh(2, vertices, elements)
    # the same region with element 0 split at vertex 3
    domain = SimplicialMesh(2, vertices, np.array([[0, 3, 2], [3, 1, 2], [0, 3, 4]]))
    with pytest.raises(NonManifoldMesh):
        validate_mesh(mesh, domain)


@pytest.mark.parametrize("dim", [3, 4])
def test_hanging_midpoints_detected(dim):
    """One element refined and its neighbours left whole.

    The midpoints hang on edges of the neighbours' facets, where one
    barycentric coordinate is zero.
    """
    coarse = initial_mesh(dim)
    one = SimplicialMesh(dim, coarse.vertices, coarse.elements[:1])
    # refinement keeps the coarse vertex ids and appends the midpoints
    fine = uniform_refine(one)
    elements = np.vstack([fine.elements, coarse.elements[1:]])
    mesh = SimplicialMesh(dim, fine.vertices, elements)
    assert mesh.total_volume() == pytest.approx(coarse.total_volume(), rel=1e-12)
    with pytest.raises(NonManifoldMesh):
        validate_mesh(mesh, coarse)


# ---------------------------------------------------------------------------
# initial meshes


def test_initial_2d(lshape2d):
    assert lshape2d.num_elements == 12
    assert lshape2d.volumes == pytest.approx(np.full(12, 0.25), rel=1e-14)
    assert lshape2d.total_volume() == pytest.approx(3.0, rel=1e-12)
    assert boundary_measure(lshape2d) == pytest.approx(8.0, rel=1e-12)


def test_initial_2d_refinement_edge_is_longest(lshape2d):
    verts = lshape2d.vertices
    for tri in lshape2d.elements:
        coords = verts[tri]
        lengths = [
            np.linalg.norm(coords[(k + 1) % 3] - coords[(k + 2) % 3]) for k in range(3)
        ]
        # refinement edge (first two vertices) is opposite local vertex 2
        assert lengths[2] == pytest.approx(max(lengths), rel=1e-12)


def test_initial_3d(lprism3d):
    assert lprism3d.num_elements == 24
    assert lprism3d.total_volume() == pytest.approx(3.0, rel=1e-12)
    assert np.all(lprism3d.volumes > 0)
    assert boundary_measure(lprism3d) == pytest.approx(14.0, rel=1e-12)


def test_initial_4d(cube4d):
    assert cube4d.num_elements == 24
    assert cube4d.volumes == pytest.approx(np.full(24, 1.0 / 24.0), rel=1e-12)
    assert cube4d.total_volume() == pytest.approx(1.0, rel=1e-12)
    assert boundary_measure(cube4d) == pytest.approx(8.0, rel=1e-12)


def test_initial_mesh_rejects_bad_dim():
    for dim in (1, 5, 0, -2):
        with pytest.raises(UnsupportedDimension):
            initial_mesh(dim)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_quality_finite(dim):
    gamma = shape_gamma(initial_mesh(dim))
    assert np.isfinite(gamma) and gamma > 0


def test_adjacent_diameter_ratio_bounded(lprism3d):
    topo = lprism3d.facets
    interior = ~topo.is_boundary
    h = lprism3d.diameters
    ratio = h[topo.plus[interior]] / h[topo.minus[interior]]
    ratio = np.maximum(ratio, 1.0 / ratio)
    assert ratio.max() < 4.0


# ---------------------------------------------------------------------------
# construction errors


def test_repeated_vertex_rejected():
    with pytest.raises(DegenerateSimplex):
        SimplicialMesh(2, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [[0, 1, 1]])


def test_flat_element_rejected():
    with pytest.raises(DegenerateSimplex):
        SimplicialMesh(
            2, np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), [[0, 1, 2]]
        )


def test_index_out_of_range_rejected():
    with pytest.raises(DimensionError):
        SimplicialMesh(2, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [[0, 1, 7]])


def test_mesh_arrays_immutable(lshape2d):
    with pytest.raises(ValueError):
        lshape2d.vertices[0, 0] = 5.0
    with pytest.raises(ValueError):
        lshape2d.elements[0, 0] = 5
