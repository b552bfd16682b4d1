"""Incidence matrix, diagonals, and preconditioner behavior."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from quasidiag.assembly import basis_set
from quasidiag.errors import DimensionError
from quasidiag.mesh import SimplicialMesh, initial_mesh
from quasidiag.precond import (
    Preconditioner,
    build_C,
    build_D,
    build_Dp,
    build_incidence,
    diagonal_preconditioner,
    quasi_diagonal_preconditioner,
)
from quasidiag.refine import nvb_refine, uniform_refine


def unit_right_triangle():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return SimplicialMesh(2, verts, np.array([[0, 1, 2]]))


def two_triangle_square():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    return SimplicialMesh(2, verts, np.array([[0, 1, 2], [1, 3, 2]]))


# ---------------------------------------------------------------------------
# incidence matrix


def test_incidence_square_frozen_column():
    mesh = two_triangle_square()
    I = build_incidence(mesh).toarray()
    # facets sorted lexicographically: (0,1),(0,2),(1,2),(1,3),(2,3);
    # the interior diagonal (1,2) has |E| = sqrt 2 and both areas 1/2
    assert I.shape == (2, 5)
    np.testing.assert_allclose(
        I[:, 2], [2.0 * np.sqrt(2.0), -2.0 * np.sqrt(2.0)], rtol=1e-15
    )
    boundary_cols = [0, 1, 3, 4]
    np.testing.assert_allclose(
        np.count_nonzero(I[:, boundary_cols], axis=0), 1
    )


def test_incidence_single_triangle():
    mesh = unit_right_triangle()
    I = build_incidence(mesh).toarray()
    assert I.shape == (1, 3)
    topo = mesh.facets
    np.testing.assert_allclose(
        I[0], topo.measure / mesh.volumes[0], rtol=1e-15
    )


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_incidence_volume_identity(dim):
    mesh = uniform_refine(initial_mesh(dim))
    topo = mesh.facets
    I = build_incidence(mesh)
    weighted = I.T @ mesh.volumes
    interior = ~topo.is_boundary
    assert np.abs(weighted[interior]).max() < 1e-12
    np.testing.assert_allclose(
        weighted[~interior], topo.measure[~interior], rtol=1e-12
    )


def test_incidence_max_two_nonzeros_per_column(lshape2d):
    mesh = nvb_refine(lshape2d, [0, 4, 9])
    I = build_incidence(mesh).tocsc()
    assert np.diff(I.indptr).max() <= 2


def test_incidence_interior_only(lshape2d):
    topo = lshape2d.facets
    I_tilde = build_incidence(lshape2d, include_boundary_facets=False)
    assert I_tilde.shape == (12, (~topo.is_boundary).sum())
    full = build_incidence(lshape2d).toarray()
    np.testing.assert_array_equal(
        I_tilde.toarray(), full[:, ~topo.is_boundary]
    )


# ---------------------------------------------------------------------------
# diagonals


def test_build_d_frozen_2d():
    mesh = two_triangle_square()
    D = build_D(mesh)
    # facet order (0,1),(0,2),(1,2),(1,3),(2,3): unit edges and the diagonal
    np.testing.assert_allclose(D, [1.0, 1.0, 0.5, 1.0, 1.0], rtol=1e-15)


def test_build_d_frozen_3d():
    verts = np.vstack([np.zeros(3), np.eye(3)])
    mesh = SimplicialMesh(3, verts, np.array([[0, 1, 2, 3]]))
    D = build_D(mesh)
    topo = mesh.facets
    half = np.flatnonzero(np.abs(topo.measure - 0.5) < 1e-14)
    np.testing.assert_allclose(D[half], 2.0 * np.sqrt(2.0), rtol=1e-14)


def test_build_dp_frozen_and_empty():
    mesh = unit_right_triangle()
    assert build_Dp(mesh, basis_set(mesh, 0)).size == 0
    Dp = build_Dp(mesh, basis_set(mesh, 1))
    np.testing.assert_allclose(Dp, 72.0, rtol=1e-13)


def test_build_dp_scaling_law():
    for dim in (2, 3):
        scale = 2.0
        verts = np.vstack([np.zeros(dim), np.eye(dim)])
        elements = np.arange(dim + 1, dtype=np.int64)[None, :]
        base = SimplicialMesh(dim, verts, elements)
        scaled = SimplicialMesh(dim, scale * verts, elements)
        ratio = build_Dp(scaled, basis_set(scaled, 1)) / build_Dp(
            base, basis_set(base, 1)
        )
        np.testing.assert_allclose(ratio, scale ** -(dim + 2.0), rtol=1e-12)


def test_build_c_frozen_values():
    mesh = two_triangle_square()
    np.testing.assert_allclose(build_C(mesh), 0.25, rtol=1e-15)
    # 4D simplex of measure 1/16: stretch the unit Kuhn simplex by 3/2
    verts = np.cumsum(np.vstack([np.zeros(4), np.eye(4)]), axis=0)
    verts = verts * np.array([1.5, 1.0, 1.0, 1.0])
    mesh4 = SimplicialMesh(4, verts, np.arange(5, dtype=np.int64)[None, :])
    assert mesh4.volumes[0] == pytest.approx(1.0 / 16.0, rel=1e-13)
    np.testing.assert_allclose(build_C(mesh4), 1.0 / 64.0, rtol=1e-12)


# ---------------------------------------------------------------------------
# preconditioner actions


def test_quasidiag_matches_dense_oracle(rng):
    mesh = two_triangle_square()
    P = quasi_diagonal_preconditioner(mesh, "hm1", 0)
    I = build_incidence(mesh).toarray()
    dense = I @ np.diag(build_D(mesh)) @ I.T
    np.testing.assert_allclose(
        P.apply([1.0, -1.0]), dense @ np.array([1.0, -1.0]), atol=1e-14
    )
    for _ in range(5):
        x = rng.standard_normal(2)
        np.testing.assert_allclose(P.apply(x), dense @ x, atol=1e-13)


def test_quasidiag_linearity(lshape2d, rng):
    P = quasi_diagonal_preconditioner(lshape2d, "tilde", 0, alpha=0.01)
    x, y = rng.standard_normal((2, 12))
    np.testing.assert_allclose(
        P.apply(x + y), P.apply(x) + P.apply(y), atol=1e-13
    )


def test_quasidiag_symmetry(lshape2d, rng):
    for space, degree in (("hm1", 0), ("hm1", 1), ("tilde", 0), ("tilde", 1)):
        P = quasi_diagonal_preconditioner(lshape2d, space, degree, alpha=0.01)
        for _ in range(4):
            x, y = rng.standard_normal((2, P.dim))
            left = float(P.apply(x) @ y)
            right = float(x @ P.apply(y))
            assert left == pytest.approx(right, rel=1e-12)


def test_tilde_single_triangle_rank_one_only():
    mesh = unit_right_triangle()
    P = quasi_diagonal_preconditioner(mesh, "tilde", 0, alpha=0.01)
    np.testing.assert_allclose(P.apply([1.0]), [0.01], rtol=1e-15)
    np.testing.assert_allclose(P.solve([0.01]), [1.0], rtol=1e-12)


def test_apply_solve_roundtrip(lshape2d, rng):
    for space, degree in (("hm1", 0), ("hm1", 1), ("tilde", 0), ("tilde", 1)):
        P = quasi_diagonal_preconditioner(lshape2d, space, degree, alpha=0.01)
        x = rng.standard_normal(P.dim)
        np.testing.assert_allclose(P.solve(P.apply(x)), x, atol=1e-9)
        np.testing.assert_allclose(P.apply(P.solve(x)), x, atol=1e-9)


@pytest.mark.parametrize("space", ["hm1", "tilde"])
@pytest.mark.parametrize("degree", [0, 1])
def test_spd_dense(space, degree, lshape2d):
    P = quasi_diagonal_preconditioner(lshape2d, space, degree, alpha=0.01)
    dense = P.to_dense()
    np.testing.assert_allclose(dense, dense.T, atol=1e-15)
    assert np.linalg.eigvalsh(dense).min() > 0.0


def test_diag_preconditioner_spd(lshape2d):
    for degree in (0, 1):
        P = diagonal_preconditioner(lshape2d, degree)
        dense = P.to_dense()
        assert np.linalg.eigvalsh(dense).min() > 0.0
        want = 1.0 / build_C(lshape2d)
        np.testing.assert_allclose(np.diag(dense)[:12], want, rtol=1e-15)


def test_sign_flip_invariance(lshape2d):
    I = build_incidence(lshape2d)
    D = build_D(lshape2d)
    flipped = I.tolil(copy=True)
    flipped[:, 3] = -flipped[:, 3]
    S = (I @ np.diag(D)) @ I.T.toarray()
    Sf = (flipped.tocsr() @ np.diag(D)) @ flipped.tocsr().T.toarray()
    np.testing.assert_allclose(S, Sf, atol=1e-16)


@pytest.mark.parametrize("degree", [0, 1])
@pytest.mark.parametrize("space", ["hm1", "tilde"])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_matrix_plus_coupling_matches_dense_blocks(dim, space, degree, rng):
    mesh = initial_mesh(dim)
    alpha = 0.1
    P = quasi_diagonal_preconditioner(mesh, space, degree, alpha=alpha)
    boundary = space == "hm1"
    I = build_incidence(mesh, include_boundary_facets=boundary).toarray()
    block = I @ np.diag(build_D(mesh, include_boundary_facets=boundary)) @ I.T
    if space == "tilde":
        block += alpha * np.ones_like(block)
    bubbles = np.diag(build_Dp(mesh, basis_set(mesh, degree)))
    want = scipy.linalg.block_diag(block, bubbles)
    assert P.dim == want.shape[0]
    # the stored matrix is exactly symmetric, not only to rounding
    assert (P.matrix != P.matrix.T).nnz == 0
    scale = np.abs(want).max()
    np.testing.assert_allclose(P.to_dense(), want, rtol=1e-13, atol=1e-13 * scale)
    x = rng.standard_normal(P.dim)
    np.testing.assert_allclose(P.apply(x), want @ x, rtol=1e-12, atol=1e-12 * scale)
    np.testing.assert_allclose(P.solve(x), np.linalg.solve(want, x), rtol=1e-10)


def test_factory_dimensions(lshape2d):
    P0 = quasi_diagonal_preconditioner(lshape2d, "hm1", 0)
    assert P0.dim == 12 and P0.coupling is None
    P1 = quasi_diagonal_preconditioner(lshape2d, "tilde", 1)
    assert P1.dim == 36 and P1.matrix.shape == (36, 36)
    np.testing.assert_array_equal(P1.coupling[12:], 0.0)
    with pytest.raises(DimensionError):
        quasi_diagonal_preconditioner(lshape2d, "h2", 0)
    for alpha in (-1.0, float("nan"), float("inf")):
        with pytest.raises(DimensionError):
            quasi_diagonal_preconditioner(lshape2d, "tilde", 0, alpha=alpha)


def test_coupling_size_mismatch():
    with pytest.raises(DimensionError):
        Preconditioner(sp.eye(3), coupling=np.ones(2))


def test_quasidiag_size_mismatch(lshape2d):
    P = quasi_diagonal_preconditioner(lshape2d, "hm1", 0)
    with pytest.raises(DimensionError):
        P.apply(np.ones(5))


@pytest.mark.parametrize("dim", [3, 4])
def test_spd_higher_dims(dim, rng):
    mesh = initial_mesh(dim)
    for space in ("hm1", "tilde"):
        P = quasi_diagonal_preconditioner(mesh, space, 1, alpha=0.1)
        x = rng.standard_normal(P.dim)
        assert float(x @ P.apply(x)) > 0.0
        dense = P.to_dense()
        assert np.linalg.eigvalsh(dense).min() > 0.0
