"""Gram operators, CG solver, and eigenvalue estimation."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, lobpcg, splu

from quasidiag import spectral

from quasidiag.assembly import (
    assemble_L,
    assemble_M,
    assemble_R,
    basis_set,
    p1_vertex_ids,
)
from quasidiag.errors import EigsNotConverged, SolverFailure
from quasidiag.mesh import SimplicialMesh, initial_mesh
from quasidiag.precond import Preconditioner, quasi_diagonal_preconditioner
from quasidiag.refine import adaptive_refine, uniform_refine
from quasidiag.spectral import (
    DIRECT_SOLVE_LIMIT,
    EIGS_TOL,
    GramOperator,
    _spd_solver,
    _VCycle,
    dense_action,
    dense_condition_number,
    extreme_eigs,
    gram_operator,
    pencil_max_eig,
    solve_spd,
)


def random_spd(rng, size, spread=10.0):
    Q, _ = np.linalg.qr(rng.standard_normal((size, size)))
    eigs = np.geomspace(1.0, spread, size)
    return (Q * eigs) @ Q.T


def unit_right_triangle():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return SimplicialMesh(2, verts, np.array([[0, 1, 2]]))


# ---------------------------------------------------------------------------
# conjugate gradients


def test_solve_spd_diagonal_quick():
    A = sp.diags([1.0, 2.0, 4.0]).tocsr()
    x, iters = solve_spd(A, np.array([1.0, 4.0, 12.0]), return_iterations=True)
    np.testing.assert_allclose(x, [1.0, 2.0, 3.0], rtol=1e-10)
    assert iters <= 3


def test_solve_spd_matches_direct(rng):
    A = random_spd(rng, 20)
    b = rng.standard_normal(20)
    x = solve_spd(A, b, tol=1e-12)
    np.testing.assert_allclose(x, np.linalg.solve(A, b), rtol=1e-8)


def test_solve_spd_failure_on_tiny_budget(rng):
    A = random_spd(rng, 30, spread=1e6)
    b = rng.standard_normal(30)
    with pytest.raises(SolverFailure):
        solve_spd(A, b, tol=1e-14, max_iter=2)


def test_preconditioner_reduces_iterations(rng):
    diag = np.geomspace(1.0, 1e4, 40)
    A = sp.diags(diag).tocsr()
    b = rng.standard_normal(40)
    _, plain = solve_spd(A, b, tol=1e-10, return_iterations=True)
    P = Preconditioner(sp.csr_matrix(np.diag(1.0 / diag)))
    _, guided = solve_spd(A, b, preconditioner=P, tol=1e-10,
                          return_iterations=True)
    assert guided < plain
    assert guided <= 3


# ---------------------------------------------------------------------------
# inner P1 solve


def refined(dim, level):
    """``initial_mesh(dim)`` refined uniformly to ``level`` (level 1 is itself)."""
    mesh = initial_mesh(dim)
    for _ in range(level - 1):
        mesh = uniform_refine(mesh)
    return mesh


def graded_mesh(steps=40):
    mesh = initial_mesh(2)
    for _ in range(steps):
        mesh = adaptive_refine(mesh)
    return mesh


INNER_SOLVE_CASES = {
    "2d-L5-dirichlet": (lambda: refined(2, 5), "dirichlet"),
    "2d-L5-free": (lambda: refined(2, 5), "free"),
    "3d-L3-dirichlet": (lambda: refined(3, 3), "dirichlet"),
    "4d-L2-free": (lambda: refined(4, 2), "free"),
    "graded-40-dirichlet": (graded_mesh, "dirichlet"),
}


def count_inner_pcg(monkeypatch):
    """Count the conjugate-gradient solves made through the module's name."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve_spd(*args, **kwargs)

    monkeypatch.setattr(spectral, "solve_spd", counting)
    return calls


@pytest.mark.parametrize("case", sorted(INNER_SOLVE_CASES))
def test_multigrid_solve_matches_splu(case, monkeypatch):
    # a small coarsest level gives these small meshes a V-cycle of several
    # levels; 4d L2 has a single interior vertex, so it runs free
    monkeypatch.setattr(spectral, "COARSEST_ROWS", 10)
    monkeypatch.setattr(spectral, "DIRECT_SOLVE_LIMIT", 0)
    make, bc = INNER_SOLVE_CASES[case]
    mesh = make()
    R = assemble_R(mesh, bc)
    vcycle = _VCycle(R, mesh, p1_vertex_ids(mesh, bc))
    rows = [a.shape[0] for a in vcycle.matrices]
    assert len(rows) >= 2
    assert all(2 * coarse <= fine for fine, coarse in zip(rows, rows[1:]))
    if case.startswith("graded"):
        # the levels skip refinement steps, so prolongations are composed
        assert len(rows) < len(mesh.ancestry)

    rng = np.random.default_rng(7)
    b, y = rng.standard_normal((2, R.shape[0]))
    vb, vy = vcycle.apply(b), vcycle.apply(y)
    assert abs(y @ vb - b @ vy) <= 1e-12 * abs(y @ vy)

    calls = count_inner_pcg(monkeypatch)
    solve = _spd_solver(R, mesh, bc)
    x, sy = solve(b), solve(y)
    assert calls == [1, 1]
    exact = splu(R.tocsc()).solve(b)
    assert np.linalg.norm(x - exact) <= 1e-10 * np.linalg.norm(exact)
    assert abs(y @ x - b @ sy) <= 1e-12 * abs(y @ sy)


def test_inner_solve_dispatch(monkeypatch):
    # past the limit a refined mesh gets MG-PCG, a mesh built directly splu
    monkeypatch.setattr(spectral, "DIRECT_SOLVE_LIMIT", 100)
    calls = count_inner_pcg(monkeypatch)
    mesh = refined(2, 4)
    by_hand = SimplicialMesh(2, mesh.vertices, mesh.elements)
    b = np.random.default_rng(8).standard_normal(p1_vertex_ids(mesh, "dirichlet").size)
    direct = gram_operator(by_hand, "hm1", 0).r_solve(b)
    assert calls == []
    multigrid = gram_operator(mesh, "hm1", 0).r_solve(b)
    assert calls == [1]
    np.testing.assert_allclose(multigrid, direct, rtol=1e-10, atol=0.0)


def test_inner_solve_past_direct_limit(monkeypatch):
    mesh = refined(2, 8)
    op = gram_operator(mesh, "hm1", 0)
    assert op.pairing.shape[0] == 97_793 > DIRECT_SOLVE_LIMIT
    calls = count_inner_pcg(monkeypatch)
    b = np.random.default_rng(9).standard_normal(op.pairing.shape[0])
    y = op.r_solve(b)
    assert calls == [1]
    R = assemble_R(mesh, "dirichlet")
    assert np.linalg.norm(R @ y - b) <= 1e-10 * np.linalg.norm(b)


# ---------------------------------------------------------------------------
# gram operators


def test_single_triangle_dirichlet_collapses_to_l():
    mesh = unit_right_triangle()
    basis = basis_set(mesh, 0)
    beta = 0.1
    op = gram_operator(mesh, "hm1", 0, beta=beta, basis=basis)
    L = assemble_L(mesh, basis).toarray()
    np.testing.assert_allclose(dense_action(op), beta * L, atol=1e-15)


def test_gram_operator_matches_dense_oracle(lshape2d):
    mesh = uniform_refine(lshape2d)
    basis = basis_set(mesh, 1)
    beta = 0.1
    op = gram_operator(mesh, "hm1", 1, beta=beta, basis=basis)
    R = assemble_R(mesh, "dirichlet").toarray()
    M = assemble_M(mesh, basis, "dirichlet").toarray()
    L = assemble_L(mesh, basis).toarray()
    want = M.T @ np.linalg.solve(R, M) + beta * L
    np.testing.assert_allclose(dense_action(op), want, atol=1e-10)


def test_gram_operator_free_variant(lshape2d):
    basis = basis_set(lshape2d, 0)
    op = gram_operator(lshape2d, "tilde", 0, beta=0.1, basis=basis)
    R = assemble_R(lshape2d, "free").toarray()
    M = assemble_M(lshape2d, basis, "free").toarray()
    L = assemble_L(lshape2d, basis).toarray()
    want = M.T @ np.linalg.solve(R, M) + 0.1 * L
    np.testing.assert_allclose(dense_action(op), want, atol=1e-10)


def test_gram_operator_symmetric_positive(lshape2d, rng):
    op = gram_operator(lshape2d, "hm1", 1, beta=0.1)
    dense = dense_action(op)
    np.testing.assert_allclose(dense, dense.T, atol=1e-11)
    assert np.linalg.eigvalsh(dense).min() > 0.0


def test_matmul_is_the_traced_apply(lshape2d, rng, monkeypatch):
    # ``op @ x`` must go through ``GramOperator.apply`` looked up on the
    # class, which is what a tracer replaces to count A applies
    mesh = uniform_refine(lshape2d)
    op = gram_operator(mesh, "hm1", 0, beta=0.1)
    x = rng.standard_normal(op.dim)
    np.testing.assert_array_equal(op @ x, op.apply(x))

    calls = []
    original = GramOperator.apply

    def counting_apply(self, x):
        calls.append(1)
        return original(self, x)

    monkeypatch.setattr(GramOperator, "apply", counting_apply)
    report = extreme_eigs(op, quasi_diagonal_preconditioner(mesh, "hm1", 0))
    assert report.iterations_max > 1
    assert len(calls) == report.iterations_max


def test_dirichlet_rows_match_vertex_count(lshape2d):
    mesh = uniform_refine(lshape2d)
    op = gram_operator(mesh, "hm1", 0, beta=0.1)
    interior = p1_vertex_ids(mesh, "dirichlet")
    assert op.pairing.shape[0] == interior.size


# ---------------------------------------------------------------------------
# eigenvalue estimation


def assert_ritz_bounds_hold(report, tol, lmin, lmax):
    """Each returned bound meets tol and brackets the dense eigenvalue."""
    assert report.residual_max <= tol
    assert report.residual_min <= tol
    assert abs(report.lambda_max - lmax) <= report.residual_max * report.lambda_max
    assert abs(report.lambda_min - lmin) <= report.residual_min * report.lambda_min


def test_extreme_eigs_diagonal_exact():
    A = sp.diags([1.0, 2.0, 3.0]).tocsr()
    P = Preconditioner(sp.csr_matrix(np.eye(3)))
    report = extreme_eigs(A, P, tol=1e-10)
    assert report.lambda_max == pytest.approx(3.0, rel=1e-6)
    assert report.lambda_min == pytest.approx(1.0, rel=1e-6)
    assert report.kappa == pytest.approx(3.0, rel=1e-5)


def test_extreme_eigs_perfect_preconditioner(rng):
    diag = np.geomspace(1.0, 1e3, 12)
    A = sp.diags(diag).tocsr()
    P = Preconditioner(sp.csr_matrix(np.diag(1.0 / diag)))
    report = extreme_eigs(A, P, tol=1e-10)
    assert report.kappa == pytest.approx(1.0, rel=1e-6)


def test_extreme_eigs_against_dense(rng):
    A = random_spd(rng, 15, spread=50.0)
    B = random_spd(rng, 15, spread=5.0)
    P = Preconditioner(sp.csr_matrix(B))
    report = extreme_eigs(A, P, tol=1e-9, max_iter=5000, seed=3)
    lmin, lmax, kappa = dense_condition_number(A, P)
    assert report.lambda_max == pytest.approx(lmax, rel=5e-3)
    assert report.lambda_min == pytest.approx(lmin, rel=5e-3)
    assert report.kappa == pytest.approx(kappa, rel=5e-3)
    assert_ritz_bounds_hold(report, 1e-9, lmin, lmax)


def test_extreme_eigs_stall_reports(rng):
    A = random_spd(rng, 10, spread=1e4)
    P = Preconditioner(sp.csr_matrix(np.eye(10)))
    with pytest.raises(EigsNotConverged) as err:
        extreme_eigs(A, P, tol=1e-14, max_iter=1)
    report = err.value.report
    assert report.lambda_max > 0.0
    assert report.iterations_max >= 1


def test_extreme_eigs_on_mesh_operator(lshape2d):
    op = gram_operator(lshape2d, "hm1", 0, beta=0.1)
    P = quasi_diagonal_preconditioner(lshape2d, "hm1", 0)
    report = extreme_eigs(op, P, tol=1e-8)
    lmin, lmax, kappa = dense_condition_number(op, P)
    assert report.kappa == pytest.approx(kappa, rel=1e-3)
    assert report.lambda_min == pytest.approx(lmin, rel=1e-3)
    assert report.lambda_max == pytest.approx(lmax, rel=1e-3)
    assert_ritz_bounds_hold(report, 1e-8, lmin, lmax)


def test_extreme_eigs_agrees_with_lobpcg_mid_size(lshape2d):
    # 12,288 dofs: far past the dense oracle, checked by LOBPCG on the
    # pencil (A, P^{-1}) instead
    mesh = lshape2d
    for _ in range(5):
        mesh = uniform_refine(mesh)
    op = gram_operator(mesh, "hm1", 0, beta=0.1)
    P = quasi_diagonal_preconditioner(mesh, "hm1", 0)
    report = extreme_eigs(op, P, seed=5)
    n = op.dim
    A = LinearOperator((n, n), matvec=op.apply, dtype=float)
    B = LinearOperator((n, n), matvec=P.solve, dtype=float)
    M = LinearOperator((n, n), matvec=P.apply, dtype=float)
    start = np.random.default_rng(6).standard_normal((n, 1))
    for largest, estimate in ((True, report.lambda_max), (False, report.lambda_min)):
        values, vectors = lobpcg(A, start, B=B, M=M, largest=largest, tol=1e-7, maxiter=300)
        theta, x = values[0], vectors[:, 0]
        # the pencil has an eigenvalue within ||r||_{B^-1} / ||x||_B of
        # theta; together with the estimate's own bound it stays inside the
        # comparison's tolerance
        r = op.apply(x) - theta * P.solve(x)
        bound = np.sqrt(r @ P.apply(r) / (x @ P.solve(x))) / theta
        assert bound + EIGS_TOL <= 1e-3
        assert estimate == pytest.approx(theta, rel=1e-3)


def test_beta_robustness(lshape2d):
    P = quasi_diagonal_preconditioner(lshape2d, "hm1", 0)
    kappas = []
    for beta in (0.1, 0.4):
        op = gram_operator(lshape2d, "hm1", 0, beta=beta)
        kappas.append(dense_condition_number(op, P)[2])
    assert kappas[1] <= 4.0 * kappas[0] * (1.0 + 1e-9)


def test_permutation_similarity(lshape2d, rng):
    perm = rng.permutation(lshape2d.elements.shape[0])
    shuffled = SimplicialMesh(
        2, lshape2d.vertices.copy(), lshape2d.elements[perm]
    )
    base = sorted(
        dense_condition_number(
            gram_operator(m, "hm1", 0, beta=0.1),
            quasi_diagonal_preconditioner(m, "hm1", 0),
        )[2]
        for m in (lshape2d, shuffled)
    )
    assert base[1] == pytest.approx(base[0], rel=1e-10)


def _check_pencil_max_eig(mesh, degree):
    import scipy.linalg as la

    beta = 0.1
    basis = basis_set(mesh, degree)
    op = gram_operator(mesh, "hm1", degree, beta=beta, basis=basis)
    L = assemble_L(mesh, basis).toarray()
    top = pencil_max_eig(sp.csr_matrix(L), op, tol=1e-9)
    dense = la.eigh(L, dense_action(op), eigvals_only=True)
    assert top == pytest.approx(dense[-1], rel=1e-5)
    assert top <= 1.0 / beta * (1.0 + 1e-9)


def test_pencil_max_eig_matches_dense(lshape2d):
    _check_pencil_max_eig(lshape2d, 0)


def test_pencil_max_eig_matches_dense_block_inverse(lshape2d):
    # degree 1 makes L^{-1} a block inverse, not the diagonal preconditioner
    _check_pencil_max_eig(uniform_refine(lshape2d), 1)


@pytest.mark.parametrize("dim", [3, 4])
def test_higher_dim_smoke(dim):
    mesh = initial_mesh(dim)
    op = gram_operator(mesh, "tilde", 0, beta=0.1)
    alpha = 0.1 if dim == 4 else 0.01
    P = quasi_diagonal_preconditioner(mesh, "tilde", 0, alpha=alpha)
    report = extreme_eigs(op, P, tol=1e-7)
    lmin, lmax, kappa = dense_condition_number(op, P)
    assert report.kappa == pytest.approx(kappa, rel=1e-2)
    assert report.lambda_min > 0.0
