"""Refinement, marking, and indicator tests."""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import shape_gamma
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from quasidiag.assembly import assemble_mass_p1
from quasidiag.errors import DimensionError, UnsupportedDimension
from quasidiag.mesh import (
    SimplicialMesh,
    boundary_measure,
    initial_mesh,
    validate_mesh,
)
from quasidiag.refine import (
    _CORNER_LEVELS,
    _CORNER_RATIO,
    _CORNER_RULES,
    _TRI_RULE_BARY,
    _TRI_RULE_W,
    _append_midpoints,
    _path_children_pattern,
    adaptive_refine,
    corner_singularity,
    corner_singularity_gradient,
    dorfler_mark,
    h1_projection_indicator,
    nvb_refine,
    singular_indicator,
    uniform_refine,
)

BOUNDARY_AREA = {2: 8.0, 3: 14.0, 4: 8.0}
REFERENCE = Path(__file__).resolve().parents[1] / "benchmark" / "reference.json"


def reference_simplex(dim):
    verts = np.vstack([np.zeros(dim), np.eye(dim)])
    return SimplicialMesh(dim, verts, np.arange(dim + 1, dtype=np.int64)[None, :])


# ---------------------------------------------------------------------------
# uniform refinement


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_uniform_child_count_and_volume(dim):
    mesh = initial_mesh(dim)
    fine = uniform_refine(mesh)
    assert fine.num_elements == mesh.num_elements * 2**dim
    assert fine.total_volume() == pytest.approx(mesh.total_volume(), rel=1e-12)
    # children of parent e occupy the contiguous block starting at e * 2^n
    kids = fine.volumes.reshape(mesh.num_elements, 2**dim)
    np.testing.assert_allclose(
        kids.sum(axis=1), mesh.volumes, rtol=1e-12, atol=0.0
    )


@pytest.mark.parametrize("dim", [3, 4])
def test_uniform_children_equal_volume(dim):
    """Red/midpoint children all inherit exactly 2^-n of the parent volume."""
    mesh = initial_mesh(dim)
    fine = uniform_refine(mesh)
    kids = fine.volumes.reshape(mesh.num_elements, 2**dim)
    want = np.broadcast_to(mesh.volumes[:, None] / 2**dim, kids.shape)
    np.testing.assert_allclose(kids, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_uniform_conforming(dim):
    fine = uniform_refine(initial_mesh(dim))
    validate_mesh(fine, initial_mesh(dim))
    assert boundary_measure(fine) == pytest.approx(BOUNDARY_AREA[dim], rel=1e-12)


def test_uniform_two_levels_2d():
    mesh = initial_mesh(2)
    for _ in range(2):
        mesh = uniform_refine(mesh)
    assert mesh.num_elements == 12 * 16
    assert mesh.total_volume() == pytest.approx(3.0, rel=1e-12)
    validate_mesh(mesh, initial_mesh(2))


def test_uniform_3d_two_levels_counts():
    mesh = uniform_refine(uniform_refine(initial_mesh(3)))
    assert mesh.num_elements == 24 * 64
    assert mesh.total_volume() == pytest.approx(3.0, rel=1e-12)


def test_midpoint_pattern_2d_matches_classic_red():
    from quasidiag.refine import _uniform_refine_midpoint

    mesh = reference_simplex(2)
    fine = _uniform_refine_midpoint(mesh)
    assert fine.num_elements == 4
    v0, v1, v2 = np.zeros(2), np.eye(2)[0], np.eye(2)[1]
    m01, m02, m12 = (v0 + v1) / 2, (v0 + v2) / 2, (v1 + v2) / 2
    expected = [
        {tuple(v0), tuple(m01), tuple(m02)},
        {tuple(v1), tuple(m01), tuple(m12)},
        {tuple(v2), tuple(m02), tuple(m12)},
        {tuple(m01), tuple(m02), tuple(m12)},
    ]
    got = [
        {tuple(p) for p in fine.vertices[tri]} for tri in fine.elements
    ]
    for want in expected:
        assert want in got


def test_midpoint_pattern_sizes():
    for n in (2, 3, 4):
        pattern = _path_children_pattern(n)
        assert len(pattern) == 2**n
        for child in pattern:
            assert len(child) == n + 1
            for a, b in child:
                assert 0 <= a <= b <= n


@pytest.mark.parametrize("dim", [3, 4])
def test_reference_simplex_refines_conforming(dim):
    fine = uniform_refine(reference_simplex(dim))
    assert fine.num_elements == 2**dim
    validate_mesh(fine, reference_simplex(dim))
    np.testing.assert_allclose(
        fine.volumes, 1.0 / math.factorial(dim) / 2**dim, rtol=1e-12
    )


def test_shape_regularity_plateau_2d():
    """NVB similarity classes saturate: no quality drift after two levels."""
    mesh = initial_mesh(2)
    gammas = []
    for _ in range(5):
        gammas.append(shape_gamma(mesh))
        mesh = uniform_refine(mesh)
    assert max(gammas[2:]) <= max(gammas[:3]) * (1.0 + 1e-12)


@pytest.mark.parametrize("dim", [3, 4])
def test_shape_regularity_bounded(dim):
    mesh = reference_simplex(dim)
    gammas = []
    for _ in range(4 if dim == 3 else 3):
        gammas.append(shape_gamma(mesh))
        mesh = uniform_refine(mesh)
    gammas.append(shape_gamma(mesh))
    # quality can degrade at most mildly once the octahedron pattern repeats
    assert gammas[-1] <= gammas[-2] * 1.05


# ---------------------------------------------------------------------------
# newest-vertex bisection


def test_nvb_empty_marking_is_identity():
    mesh = initial_mesh(2)
    out = nvb_refine(mesh, [])
    assert out is mesh


def test_nvb_single_mark():
    mesh = initial_mesh(2)
    out = nvb_refine(mesh, [0])
    assert out.num_elements > mesh.num_elements
    assert out.total_volume() == pytest.approx(3.0, rel=1e-12)
    validate_mesh(out, mesh)
    # element 0 must actually be split: its refinement edge midpoint exists
    a, b, _ = mesh.elements[0]
    mid = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
    assert np.any(np.all(np.abs(out.vertices - mid) < 1e-14, axis=1))


def test_nvb_all_marked_conforming():
    mesh = initial_mesh(2)
    out = nvb_refine(mesh, np.arange(mesh.num_elements))
    assert out.num_elements >= 2 * mesh.num_elements
    validate_mesh(out, mesh)
    assert boundary_measure(out) == pytest.approx(8.0, rel=1e-12)


def test_nvb_determinism():
    mesh = initial_mesh(2)
    first = nvb_refine(mesh, [3, 7])
    second = nvb_refine(mesh, [3, 7])
    np.testing.assert_array_equal(first.elements, second.elements)
    np.testing.assert_array_equal(first.vertices, second.vertices)


def test_nvb_invalid_marks():
    mesh = initial_mesh(2)
    with pytest.raises(DimensionError):
        nvb_refine(mesh, [99])
    with pytest.raises(UnsupportedDimension):
        nvb_refine(initial_mesh(3), [0])


@given(st.lists(st.integers(min_value=0, max_value=11), min_size=1, max_size=6))
@settings(max_examples=25)
def test_nvb_random_marks_stay_conforming(marks):
    mesh = initial_mesh(2)
    out = nvb_refine(mesh, np.array(marks))
    validate_mesh(out, mesh)
    assert out.total_volume() == pytest.approx(3.0, rel=1e-12)


def test_nvb_repeated_refinement_quality():
    rng = np.random.default_rng(7)
    mesh = initial_mesh(2)
    baseline = shape_gamma(mesh)
    for _ in range(8):
        k = rng.integers(1, max(2, mesh.num_elements // 3))
        marks = rng.choice(mesh.num_elements, size=k, replace=False)
        mesh = nvb_refine(mesh, marks)
    validate_mesh(mesh, initial_mesh(2))
    # NVB produces finitely many similarity classes; quality stays bounded
    assert shape_gamma(mesh) <= 4.0 * baseline


# ---------------------------------------------------------------------------
# refinement record


def assert_records_step(coarse, fine):
    """``fine`` carries ``coarse``'s ancestry plus one step that made it."""
    assert len(fine.ancestry) == len(coarse.ancestry) + 1
    assert all(a is b for a, b in zip(fine.ancestry, coarse.ancestry))
    step = fine.ancestry[-1]
    lo, hi = step.parent_edges.T
    assert not step.parent_edges.flags.writeable
    assert step.num_coarse == coarse.num_vertices
    # the coarse vertices are a prefix of the fine ones
    np.testing.assert_array_equal(fine.vertices[: step.num_coarse], coarse.vertices)
    # every new vertex is the midpoint of its recorded parent edge, which is
    # an edge of the coarse mesh
    assert len(step.parent_edges) == fine.num_vertices - coarse.num_vertices
    np.testing.assert_array_equal(
        fine.vertices[step.num_coarse :],
        0.5 * (coarse.vertices[lo] + coarse.vertices[hi]),
    )
    pairs = itertools.combinations(range(coarse.dim + 1), 2)
    coarse_edges = {
        (int(a), int(b))
        for i, j in pairs
        for a, b in np.sort(coarse.elements[:, [i, j]], axis=1)
    }
    assert set(zip(lo.tolist(), hi.tolist())) <= coarse_edges
    assert np.all(lo < hi)


@pytest.mark.parametrize("dim, levels", [(2, 3), (3, 2), (4, 2)])
def test_uniform_refine_records_parent_edges(dim, levels):
    mesh = initial_mesh(dim)
    assert mesh.ancestry == ()
    for _ in range(levels):
        fine = uniform_refine(mesh)
        assert_records_step(mesh, fine)
        mesh = fine
    assert len(mesh.ancestry) == levels


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=8),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=25, deadline=None)
def test_nvb_refine_records_parent_edges(rounds):
    mesh = initial_mesh(2)
    for picks in rounds:
        fine = nvb_refine(mesh, np.array(picks) % mesh.num_elements)
        assert_records_step(mesh, fine)
        mesh = fine


# ---------------------------------------------------------------------------
# bulk marking


def brute_force_minimal(indicators, theta):
    total = indicators.sum()
    best = None
    ids = range(len(indicators))
    for size in range(len(indicators) + 1):
        for subset in itertools.combinations(ids, size):
            if indicators[list(subset)].sum() >= theta * total - 1e-12 * total:
                best = subset
                break
        if best is not None:
            break
    return best


def test_dorfler_simple():
    np.testing.assert_array_equal(dorfler_mark([4.0, 1.0, 2.0, 1.0], 0.5), [0])
    np.testing.assert_array_equal(dorfler_mark([4.0, 1.0, 2.0, 1.0], 0.75), [0, 2])
    np.testing.assert_array_equal(dorfler_mark([4.0, 1.0, 2.0, 1.0], 0.8), [0, 1, 2])


def test_dorfler_all_zero():
    assert dorfler_mark(np.zeros(5), 0.4).size == 0


def test_dorfler_theta_one_marks_all_positive():
    marked = dorfler_mark([1.0, 0.0, 2.0, 0.0], 1.0)
    np.testing.assert_array_equal(marked, [0, 2])


def test_dorfler_tie_break_ascending():
    np.testing.assert_array_equal(dorfler_mark([1.0, 1.0, 1.0, 1.0], 0.5), [0, 1])


def test_dorfler_validation():
    with pytest.raises(ValueError):
        dorfler_mark([1.0], 0.0)
    with pytest.raises(ValueError):
        dorfler_mark([1.0], 1.5)
    with pytest.raises(ValueError):
        dorfler_mark([-1.0, 2.0], 0.5)


@given(
    st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=10),
    st.floats(min_value=0.05, max_value=1.0),
)
@settings(max_examples=60)
def test_dorfler_minimal_cardinality(values, theta):
    indicators = np.array(values)
    marked = dorfler_mark(indicators, theta)
    total = indicators.sum()
    if total == 0.0:
        assert marked.size == 0
        return
    assert indicators[marked].sum() >= theta * total * (1.0 - 1e-12)
    best = brute_force_minimal(indicators, theta)
    assert len(marked) == len(best)


# ---------------------------------------------------------------------------
# quadrature and singular indicator


def test_triangle_rule_degree_four_exact():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    pts = _TRI_RULE_BARY @ verts
    wts = _TRI_RULE_W * 0.5
    # int over T of x^2 y^2 = 2!2!2! |T| 2 / 6! with |T| = 1/2
    integral = np.sum(wts * pts[:, 0] ** 2 * pts[:, 1] ** 2)
    assert integral == pytest.approx(1.0 / 180.0, rel=1e-14)
    quartic = np.sum(wts * pts[:, 0] ** 4)
    assert quartic == pytest.approx(1.0 / 30.0, rel=1e-13)


def test_corner_rule_partitions_area():
    verts = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]])
    lam, weights = _CORNER_RULES[0]  # graded towards local vertex 0
    pts = lam @ verts
    wts = weights * 0.125
    assert wts.sum() == pytest.approx(0.125, rel=1e-13)
    assert len(wts) == 9 * 6
    radii = np.hypot(pts[:, 0], pts[:, 1])
    assert radii.min() > 0.0


def test_corner_singularity_vanishes_on_arms():
    arm_down = np.column_stack([np.zeros(5), -np.linspace(0.1, 1.0, 5)])
    arm_left = np.column_stack([-np.linspace(0.1, 1.0, 5), np.zeros(5)])
    assert np.abs(corner_singularity(arm_down)).max() < 1e-14
    assert np.abs(corner_singularity(arm_left)).max() < 1e-14


def test_corner_singularity_gradient_finite_difference():
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.2, 0.9, size=(20, 2))
    grad = corner_singularity_gradient(pts)
    eps = 1e-6
    for axis in range(2):
        shift = np.zeros(2)
        shift[axis] = eps
        fd = (corner_singularity(pts + shift) - corner_singularity(pts - shift)) / (
            2 * eps
        )
        np.testing.assert_allclose(grad[:, axis], fd, rtol=1e-6, atol=1e-8)


def test_indicator_reproduces_p1(lshape2d):
    def fn(p):
        return 1.0 + 2.0 * p[..., 0] - 3.0 * p[..., 1]

    def grad(p):
        return np.broadcast_to(np.array([2.0, -3.0]), p.shape[:-1] + (2,)).copy()

    mu = h1_projection_indicator(lshape2d, fn, grad)
    assert mu.max() < 1e-20
    mu_sub = h1_projection_indicator(lshape2d, fn, grad, singular_point=np.zeros(2))
    assert mu_sub.max() < 1e-20


def test_singular_indicator_positive_and_additive(lshape2d):
    mu = singular_indicator(lshape2d)
    assert mu.shape == (12,)
    assert mu.min() >= 0.0
    assert mu.sum() > 0.0


def test_singular_indicator_concentrates_at_corner(lshape2d):
    mu = singular_indicator(lshape2d)
    touches_corner = np.array(
        [
            np.any(np.all(np.abs(lshape2d.vertices[tri]) < 1e-14, axis=1))
            for tri in lshape2d.elements
        ]
    )
    assert mu[touches_corner].min() > mu[~touches_corner].max()


def test_adaptive_refine_grades_towards_corner():
    mesh = initial_mesh(2)
    for _ in range(6):
        mesh = adaptive_refine(mesh, 0.25)
    validate_mesh(mesh, initial_mesh(2))
    assert mesh.num_elements > 12
    h = mesh.diameters
    assert h.min() / h.max() < 0.5
    # smallest elements sit at the reentrant corner
    centers = mesh.vertices[mesh.elements].mean(axis=1)
    closest = np.argmin(np.linalg.norm(centers, axis=1))
    assert mesh.diameters[closest] <= np.median(h)


# ---------------------------------------------------------------------------
# per-element oracles of the batched indicator and of masked NVB, and the
# closed-form four-child split of 2d uniform refinement


def _oracle_triangle_rule(coords):
    pts = _TRI_RULE_BARY @ coords
    u = coords[1] - coords[0]
    v = coords[2] - coords[0]
    area = 0.5 * abs(u[0] * v[1] - u[1] * v[0])
    return pts, _TRI_RULE_W * area


def _oracle_corner_subtriangles(coords, corner_local):
    o = coords[corner_local]
    p = coords[(corner_local + 1) % 3] - o
    q = coords[(corner_local + 2) % 3] - o
    subs = []
    outer = 1.0
    for _ in range(_CORNER_LEVELS):
        inner = outer * _CORNER_RATIO
        subs.append([o + inner * p, o + outer * p, o + outer * q])
        subs.append([o + inner * p, o + outer * q, o + inner * q])
        outer = inner
    subs.append([o, o + outer * p, o + outer * q])
    return np.array(subs)


def _oracle_element_rule(coords, singular_point):
    if singular_point is not None:
        dist = np.linalg.norm(coords - singular_point, axis=1)
        corner = int(np.argmin(dist))
        if dist[corner] <= 1e-12 * max(1.0, float(dist.max())):
            pieces = [
                _oracle_triangle_rule(sub)
                for sub in _oracle_corner_subtriangles(coords, corner)
            ]
            return (
                np.concatenate([p for p, _ in pieces]),
                np.concatenate([w for _, w in pieces]),
            )
    return _oracle_triangle_rule(coords)


def _oracle_barycentric(coords, points):
    trans = np.linalg.inv((coords[1:] - coords[0]).T)
    lam12 = (trans @ (points - coords[0]).T).T
    lam0 = 1.0 - lam12.sum(axis=1)
    return np.column_stack([lam0, lam12]), trans


def _oracle_indicator(mesh, fn, grad_fn, singular_point=None):
    """One quadrature rule and one barycentric solve per element."""
    rules = [
        _oracle_element_rule(mesh.vertices[tri], singular_point)
        for tri in mesh.elements
    ]
    rhs = np.zeros(mesh.num_vertices)
    bary = []
    for tri, (pts, wts) in zip(mesh.elements, rules):
        lam, trans = _oracle_barycentric(mesh.vertices[tri], pts)
        bary.append((lam, trans))
        rhs[tri] += (lam * (wts * fn(pts))[:, None]).sum(axis=0)
    nodal = splu(assemble_mass_p1(mesh).tocsc()).solve(rhs)
    mu = np.empty(mesh.num_elements)
    for e, (tri, (pts, wts)) in enumerate(zip(mesh.elements, rules)):
        lam, trans = bary[e]
        deficit = fn(pts) - lam @ nodal[tri]
        grad_lam = np.vstack([-trans.sum(axis=0), trans])
        grad_deficit = grad_fn(pts) - nodal[tri] @ grad_lam
        mu[e] = np.sum(wts * deficit**2) + np.sum(
            wts * np.sum(grad_deficit**2, axis=1)
        )
    return mu


def _oracle_nvb_refine(mesh, marked):
    """NVB with closure, children listed element by element."""
    topo = mesh.facets
    ef = topo.element_facets
    marked_edge = np.zeros(len(topo), dtype=bool)
    marked_edge[ef[np.asarray(marked, dtype=np.int64), 2]] = True
    while True:
        need = marked_edge[ef].any(axis=1) & ~marked_edge[ef[:, 2]]
        if not need.any():
            break
        marked_edge[ef[need, 2]] = True
    edge_ids = np.flatnonzero(marked_edge)
    grown, new_ids, _ = _append_midpoints(mesh.vertices, topo.vertex_ids[edge_ids])
    midpoint_of = np.full(len(topo), -1, dtype=np.int64)
    midpoint_of[edge_ids] = new_ids

    children = []
    for e in range(mesh.num_elements):
        a, b, c = mesh.elements[e]
        m_bc = midpoint_of[ef[e, 0]]
        m_ca = midpoint_of[ef[e, 1]]
        m_ab = midpoint_of[ef[e, 2]]
        if m_ab < 0:
            children.append((a, b, c))
            continue
        if m_ca < 0:
            children.append((c, a, m_ab))
        else:
            children.append((m_ab, c, m_ca))
            children.append((a, m_ab, m_ca))
        if m_bc < 0:
            children.append((b, c, m_ab))
        else:
            children.append((m_ab, b, m_bc))
            children.append((c, m_ab, m_bc))
    return grown, np.array(children, dtype=np.int64)


def _oracle_uniform_refine_2d(mesh):
    """Red refinement of every element into its four NVB children."""
    el = mesh.elements
    a, b, c = el[:, 0], el[:, 1], el[:, 2]
    edges = np.concatenate([np.column_stack(p) for p in ((a, b), (b, c), (c, a))])
    grown, mids, _ = _append_midpoints(mesh.vertices, edges)
    nT = mesh.num_elements
    m_ab, m_bc, m_ca = mids[:nT], mids[nT : 2 * nT], mids[2 * nT :]
    children = np.empty((nT, 4, 3), dtype=np.int64)
    children[:, 0] = np.column_stack([m_ab, c, m_ca])
    children[:, 1] = np.column_stack([a, m_ab, m_ca])
    children[:, 2] = np.column_stack([m_ab, b, m_bc])
    children[:, 3] = np.column_stack([c, m_ab, m_bc])
    return grown, children.reshape(-1, 3)


def test_uniform_2d_matches_oracle():
    mesh = initial_mesh(2)
    for _ in range(7):
        fine = uniform_refine(mesh)
        grown, children = _oracle_uniform_refine_2d(mesh)
        np.testing.assert_array_equal(fine.elements, children)
        np.testing.assert_array_equal(fine.vertices, grown)
        mesh = fine


GRADED_STEPS = 40
ORACLE_STEPS = 28


@pytest.fixture(scope="module")
def graded_path():
    """Meshes and markings of the 40-step adaptive loop (theta = 1/4)."""
    meshes, marks = [initial_mesh(2)], []
    for _ in range(GRADED_STEPS):
        marks.append(dorfler_mark(singular_indicator(meshes[-1]), 0.25))
        meshes.append(nvb_refine(meshes[-1], marks[-1]))
    return meshes, marks


def test_graded_path_pinned_to_reference(graded_path):
    """Element counts at every step match the benchmark's reference.

    At step 29 two mirror-image elements carry the same indicator at the
    Dorfler cutoff; either choice gives the same counts by symmetry, and
    this pins that the choice stays one of the two.
    """
    meshes, _ = graded_path
    levels = json.loads(REFERENCE.read_text())["workloads"]["graded2d-setup"]["levels"]
    want = [levels[str(step)]["nE"] for step in range(1, GRADED_STEPS + 1)]
    assert [m.num_elements for m in meshes[1:]] == want
    assert want[-1] == 7984
    for m in meshes[1:]:
        validate_mesh(m, meshes[0])
    final = meshes[-1]
    assert final.diameters.min() / final.diameters.max() < 1.0 / 32.0


def _assert_indicator_matches_oracle(mesh):
    args = (mesh, corner_singularity, corner_singularity_gradient, np.zeros(2))
    mu = h1_projection_indicator(*args)
    oracle = _oracle_indicator(*args)
    assert np.abs(mu - oracle).max() <= 1e-8 * oracle.max()


def test_indicator_matches_oracle_on_graded_path(graded_path):
    meshes, _ = graded_path
    for mesh in meshes[:ORACLE_STEPS]:
        _assert_indicator_matches_oracle(mesh)


def test_nvb_matches_oracle_on_graded_path(graded_path):
    meshes, marks = graded_path
    for mesh, marked, fine in zip(meshes, marks, meshes[1:]):
        grown, children = _oracle_nvb_refine(mesh, marked)
        np.testing.assert_array_equal(fine.elements, children)
        np.testing.assert_array_equal(fine.vertices, grown)


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=8),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=25, deadline=None)
def test_batched_refine_matches_oracles_on_random_nvb_meshes(rounds):
    mesh = initial_mesh(2)
    for picks in rounds:
        marked = np.array(picks) % mesh.num_elements
        fine = nvb_refine(mesh, marked)
        grown, children = _oracle_nvb_refine(mesh, marked)
        np.testing.assert_array_equal(fine.elements, children)
        np.testing.assert_array_equal(fine.vertices, grown)
        mesh = fine
    _assert_indicator_matches_oracle(mesh)
