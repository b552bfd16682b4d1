"""Assembly tests: P1 matrices, piecewise bases, pairing and weighted mass."""

import math

import numpy as np
import pytest
from conftest import cayley_menger_measure

from quasidiag.assembly import (
    assemble_L,
    assemble_M,
    assemble_R,
    assemble_mass_p1,
    assemble_stiffness,
    basis_set,
    boundary_vertices,
    make_p1_bubbles,
    p1_vertex_ids,
)
from quasidiag.errors import DimensionError, EmptySpace
from quasidiag.mesh import SimplicialMesh, initial_mesh
from quasidiag.refine import nvb_refine, uniform_refine

# degree-4 symmetric triangle rule, used as an independent quadrature oracle
ORACLE_BARY = np.array(
    [
        [0.108103018168070, 0.445948490915965, 0.445948490915965],
        [0.445948490915965, 0.108103018168070, 0.445948490915965],
        [0.445948490915965, 0.445948490915965, 0.108103018168070],
        [0.816847572980459, 0.091576213509771, 0.091576213509771],
        [0.091576213509771, 0.816847572980459, 0.091576213509771],
        [0.091576213509771, 0.091576213509771, 0.816847572980459],
    ]
)
ORACLE_W = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)


def unit_right_triangle():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return SimplicialMesh(2, verts, np.array([[0, 1, 2]]))


def two_triangle_square():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    return SimplicialMesh(2, verts, np.array([[0, 1, 2], [1, 3, 2]]))


def bary_moment(exponents, dim, volume):
    """Exact integral of a barycentric monomial over a simplex."""
    num = math.prod(math.factorial(a) for a in exponents) * math.factorial(dim)
    return num * volume / math.factorial(dim + sum(exponents))


# ---------------------------------------------------------------------------
# vertex bookkeeping


def test_boundary_vertices_lshape(lshape2d):
    np.testing.assert_array_equal(boundary_vertices(lshape2d), np.arange(8))


def test_p1_vertex_ids(lshape2d):
    np.testing.assert_array_equal(p1_vertex_ids(lshape2d, "free"), np.arange(11))
    np.testing.assert_array_equal(p1_vertex_ids(lshape2d, "dirichlet"), [8, 9, 10])


@pytest.mark.parametrize("dim, levels", [(2, 4), (3, 2)])
def test_vertex_ids_match_the_set_difference(dim, levels):
    # the sort-based formula the boolean mask replaced, kept as the oracle
    mesh = initial_mesh(dim)
    for _ in range(levels):
        mesh = uniform_refine(mesh)
    topo = mesh.facets
    boundary = np.unique(topo.vertex_ids[topo.is_boundary])
    interior = np.setdiff1d(np.arange(mesh.num_vertices, dtype=np.int64), boundary)
    for got, want in (
        (boundary_vertices(mesh), boundary),
        (p1_vertex_ids(mesh, "dirichlet"), interior),
    ):
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)


def test_p1_empty_dirichlet_raises():
    with pytest.raises(EmptySpace):
        p1_vertex_ids(unit_right_triangle(), "dirichlet")


def test_bad_boundary_condition_rejected(lshape2d):
    with pytest.raises(DimensionError):
        assemble_R(lshape2d, "neumann")


# ---------------------------------------------------------------------------
# stiffness / mass / R


def test_local_stiffness_unit_right_triangle():
    got = assemble_stiffness(unit_right_triangle()).toarray()
    want = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    np.testing.assert_allclose(got, want, atol=1e-15)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_stiffness_annihilates_constants(dim):
    mesh = initial_mesh(dim)
    S = assemble_stiffness(mesh)
    assert np.abs(S @ np.ones(mesh.num_vertices)).max() < 1e-12


def test_mass_total_is_domain_volume(lshape2d):
    M = assemble_mass_p1(lshape2d)
    assert M.sum() == pytest.approx(3.0, rel=1e-13)


def test_r_free_is_stiffness_plus_mass():
    mesh = unit_right_triangle()
    got = assemble_R(mesh, "free").toarray()
    area = cayley_menger_measure(mesh.vertices[mesh.elements[0]])
    mass = area * (1 + np.eye(3)) / 12.0
    want = assemble_stiffness(mesh).toarray() + mass
    np.testing.assert_allclose(got, want, atol=1e-15)


def test_r_dirichlet_lshape_spd(lshape2d):
    R = assemble_R(lshape2d, "dirichlet").toarray()
    assert R.shape == (3, 3)
    assert np.linalg.eigvalsh(R).min() > 0.0


def test_r_empty_dirichlet_raises():
    with pytest.raises(EmptySpace):
        assemble_R(unit_right_triangle(), "dirichlet")


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_r_variants_spd_small(dim):
    mesh = initial_mesh(dim)
    free = assemble_R(mesh, "free").toarray()
    assert np.linalg.eigvalsh(free).min() > 0.0
    if dim > 2:
        # the coarse meshes have every vertex on the boundary; one
        # refinement introduces interior vertices
        mesh = uniform_refine(mesh)
    diri = assemble_R(mesh, "dirichlet").toarray()
    assert np.linalg.eigvalsh(diri).min() > 0.0


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_exact_symmetry(dim):
    mesh = uniform_refine(initial_mesh(dim))
    for matrix in (
        assemble_stiffness(mesh),
        assemble_mass_p1(mesh),
        assemble_R(mesh, "free"),
        assemble_R(mesh, "dirichlet"),
        assemble_L(mesh, basis_set(mesh, 1)),
    ):
        assert (matrix != matrix.T).nnz == 0


def test_exact_symmetry_after_adaptive():
    mesh = nvb_refine(initial_mesh(2), [0, 5, 11])
    S = assemble_R(mesh, "dirichlet")
    assert (S != S.T).nnz == 0


# ---------------------------------------------------------------------------
# bubbles


def test_bubbles_zero_mean_and_norms():
    for dim in (2, 3, 4):
        coeffs, norms_sq = make_p1_bubbles(dim, 0.7)
        assert coeffs.shape == (dim, dim + 1)
        # zero mean: coefficient rows sum to zero since int lambda_i is equal
        np.testing.assert_allclose(coeffs.sum(axis=1), 0.0, atol=1e-15)
        want = dim * 0.7 / ((dim + 1) ** 2 * (dim + 2))
        np.testing.assert_allclose(norms_sq, want, rtol=1e-15)


def test_bubble_norm_2d_frozen():
    _, norms_sq = make_p1_bubbles(2, 0.5)
    np.testing.assert_allclose(norms_sq, 0.5 / 18.0, rtol=1e-15)


def test_bubble_norm_against_quadrature():
    coeffs, norms_sq = make_p1_bubbles(2, 0.5)
    for j in range(2):
        values = ORACLE_BARY @ coeffs[j]
        integral = 0.5 * np.sum(ORACLE_W * values**2)
        assert integral == pytest.approx(norms_sq[j], rel=1e-13)


def test_bubbles_and_characteristic_span_p1():
    dim = 3
    coeffs, _ = make_p1_bubbles(dim, 1.0)
    functions = np.vstack([np.ones(dim + 1), coeffs])
    gram = np.zeros((dim + 1, dim + 1))
    eye = np.eye(dim + 1, dtype=int)
    for a in range(dim + 1):
        for b in range(dim + 1):
            for i in range(dim + 1):
                for j in range(dim + 1):
                    moment = bary_moment(eye[i] + eye[j], dim, 1.0)
                    gram[a, b] += functions[a, i] * functions[b, j] * moment
    assert abs(np.linalg.det(gram)) > 1e-12


def test_basis_set_sizes(lshape2d):
    b0 = basis_set(lshape2d, 0)
    assert b0.fields_per_element == 1 and b0.size == 12
    b1 = basis_set(lshape2d, 1)
    assert b1.fields_per_element == 3 and b1.size == 36
    with pytest.raises(DimensionError):
        basis_set(lshape2d, 2)


# ---------------------------------------------------------------------------
# pairing matrix M


def test_m_p0_single_triangle():
    mesh = unit_right_triangle()
    M = assemble_M(mesh, basis_set(mesh, 0), "free").toarray()
    np.testing.assert_allclose(M, np.full((3, 1), 0.5 / 3.0), rtol=1e-15)


def test_m_shapes(lshape2d):
    b1 = basis_set(lshape2d, 1)
    assert assemble_M(lshape2d, b1, "free").shape == (11, 36)
    assert assemble_M(lshape2d, b1, "dirichlet").shape == (3, 36)


def test_m_empty_dirichlet_raises():
    mesh = unit_right_triangle()
    with pytest.raises(EmptySpace):
        assemble_M(mesh, basis_set(mesh, 1), "dirichlet")


def test_m_bubble_columns_sum_to_zero(lshape2d):
    basis = basis_set(lshape2d, 1)
    M = assemble_M(lshape2d, basis, "free").toarray()
    sums = M[:, 12:].sum(axis=0)
    assert np.abs(sums).max() < 1e-13 * lshape2d.volumes.max()


def test_m_against_quadrature_oracle(rng):
    verts = np.array([[0.0, 0.0], [1.1, 0.1], [0.3, 0.9], [1.4, 1.2]])
    mesh = SimplicialMesh(2, verts, np.array([[0, 1, 2], [1, 3, 2]]))
    basis = basis_set(mesh, 1)
    M = assemble_M(mesh, basis, "free").toarray()
    coeffs = basis.bubble_coeffs
    oracle = np.zeros_like(M)
    for e, tri in enumerate(mesh.elements):
        area = cayley_menger_measure(mesh.vertices[tri])
        for i_local, vertex in enumerate(tri):
            hat = ORACLE_BARY[:, i_local]
            oracle[vertex, e] += area * np.sum(ORACLE_W * hat)
            for j in range(2):
                bubble = ORACLE_BARY @ coeffs[j]
                oracle[vertex, 2 + 2 * e + j] += area * np.sum(ORACLE_W * hat * bubble)
    np.testing.assert_allclose(M, oracle, atol=1e-12)


# ---------------------------------------------------------------------------
# weighted mass L


def test_l_p0_diagonal_values(lshape2d):
    L = assemble_L(lshape2d, basis_set(lshape2d, 0)).toarray()
    np.testing.assert_allclose(L, np.diag(np.full(12, 0.25**2)), atol=1e-16)


def test_l_p0_frozen_half_area():
    mesh = two_triangle_square()
    L = assemble_L(mesh, basis_set(mesh, 0)).toarray()
    np.testing.assert_allclose(np.diag(L), 0.25, rtol=1e-15)


def test_l_p0_matches_power_law():
    for dim in (3, 4):
        mesh = initial_mesh(dim)
        L = assemble_L(mesh, basis_set(mesh, 0))
        want = mesh.volumes ** ((dim + 2.0) / dim)
        np.testing.assert_allclose(L.diagonal(), want, rtol=1e-14)


def test_l_p1_block_structure(lshape2d):
    L = assemble_L(lshape2d, basis_set(lshape2d, 1)).toarray()
    assert np.abs(L[:12, 12:]).max() == 0.0
    assert np.abs(L[12:, :12]).max() == 0.0
    eigs = np.linalg.eigvalsh(L)
    assert eigs.min() > 0.0


def test_l_p1_block_condition_size_independent():
    blocks = []
    for scale in (1.0, 7.0):
        verts = scale * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        mesh = SimplicialMesh(2, verts, np.array([[0, 1, 2]]))
        L = assemble_L(mesh, basis_set(mesh, 1)).toarray()
        eigs = np.linalg.eigvalsh(L[1:, 1:])
        blocks.append(eigs.max() / eigs.min())
    assert blocks[0] == pytest.approx(blocks[1], rel=1e-12)


def test_l_galerkin_consistency(lshape2d, rng):
    basis = basis_set(lshape2d, 1)
    L = assemble_L(lshape2d, basis)
    x = rng.standard_normal(basis.size)
    quad = 0.0
    for e, tri in enumerate(lshape2d.elements):
        area = cayley_menger_measure(lshape2d.vertices[tri])
        values = np.full(len(ORACLE_W), x[e])
        for j in range(2):
            values = values + x[12 + 2 * e + j] * (ORACLE_BARY @ basis.bubble_coeffs[j])
        quad += area ** (2.0 / 2.0) * area * np.sum(ORACLE_W * values**2)
    assert float(x @ (L @ x)) == pytest.approx(quad, rel=1e-11)
