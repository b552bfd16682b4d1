"""Gram operators, CG solver, and eigenvalue estimation."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from conftest import pencil_max_eig
from hypothesis import example, given, strategies as st
from scipy.sparse.linalg import LinearOperator, lobpcg, splu

from quasidiag import spectral

from quasidiag.assembly import (
    assemble_L,
    assemble_M,
    assemble_R,
    basis_set,
    p1_vertex_ids,
)
from quasidiag.errors import DimensionError, EigsNotConverged, SolverFailure
from quasidiag.mesh import SimplicialMesh, initial_mesh
from quasidiag.precond import (
    Preconditioner,
    diagonal_lambda_min,
    diagonal_preconditioner,
    quasi_diagonal_preconditioner,
)
from quasidiag.refine import adaptive_refine, uniform_refine
from quasidiag.spectral import (
    DIRECT_SOLVE_LIMIT,
    EIGS_TOL,
    GramOperator,
    _extreme_ritz,
    _spd_solver,
    _VCycle,
    dense_action,
    dense_condition_number,
    extreme_eigs,
    gram_operator,
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


class CountingOperator:
    """``matrix @ x`` through a count of the applies."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.shape = matrix.shape
        self.calls = 0

    def __matmul__(self, x):
        self.calls += 1
        return self.matrix @ x


def identity(size):
    return Preconditioner(sp.identity(size, format="csr"))


def diagonal(entries):
    return sp.diags(np.asarray(entries, dtype=float)).tocsr()


def test_solve_spd_diagonal_quick():
    A = CountingOperator(diagonal([1.0, 2.0, 4.0]))
    x = solve_spd(A, np.array([1.0, 4.0, 12.0]), identity(3))
    np.testing.assert_allclose(x, [1.0, 2.0, 3.0], rtol=1e-10)
    assert A.calls <= 3


def test_solve_spd_matches_direct(rng):
    A = random_spd(rng, 20)
    b = rng.standard_normal(20)
    x = solve_spd(A, b, identity(20), tol=1e-12)
    np.testing.assert_allclose(x, np.linalg.solve(A, b), rtol=1e-8)


def test_solve_spd_zero_rhs():
    A = CountingOperator(diagonal([1.0, 2.0, 4.0]))
    x = solve_spd(A, np.zeros(3), identity(3))
    np.testing.assert_array_equal(x, 0.0)
    assert A.calls == 0


def test_solve_spd_fails_at_the_iteration_cap(rng):
    A = random_spd(rng, 30, spread=1e6)
    b = rng.standard_normal(30)
    with pytest.raises(SolverFailure) as err:
        solve_spd(A, b, identity(30), tol=1e-300)
    assert err.value.iterations == 10 * 30


def test_preconditioner_reduces_iterations(rng):
    diag = np.geomspace(1.0, 1e4, 40)
    plain, guided = CountingOperator(diagonal(diag)), CountingOperator(diagonal(diag))
    b = rng.standard_normal(40)
    solve_spd(plain, b, identity(40), tol=1e-10)
    P = Preconditioner(sp.csr_matrix(np.diag(1.0 / diag)))
    solve_spd(guided, b, P, tol=1e-10)
    assert guided.calls < plain.calls
    assert guided.calls <= 3


# operator and preconditioner diagonals on which the CG recurrence breaks
# down mid-run, the message, and the step that meets it
BREAKDOWNS = {
    # r . P r < 0 after step 7, before the estimate has converged; read as
    # convergence it gives lambda_max = 2969.6 with a bound of 1.6e-15,
    # where the spectrum of P A lies in [-10, 85.3]
    "indefinite-preconditioner": (
        np.geomspace(1.0, 100.0, 30),
        np.r_[np.ones(29), -0.1],
        "preconditioner is not positive definite",
        7,
    ),
    "indefinite-operator": (
        np.r_[-1.0, np.geomspace(1.0, 100.0, 29)],
        np.ones(30),
        "non-positive curvature",
        14,
    ),
    # r . P r falls to 7e-16 of its last value at step 15 while r grows in
    # the kernel of P; read as convergence, P A (15 zero eigenvalues) had
    # kappa = 9.24 with bounds below 1e-8, and the solve a residual of 3.9
    "semi-definite-preconditioner": (
        np.geomspace(1.0, 100.0, 30),
        np.r_[np.ones(15), np.zeros(15)],
        "singular on the residual",
        15,
    ),
}

# both consumers of the recurrence, started from the same vector
CONSUMERS = {
    "extreme_eigs": lambda A, P: extreme_eigs(A, P, seed=0),
    "solve_spd": lambda A, P: solve_spd(
        A, np.random.default_rng(0).standard_normal(P.dim), P
    ),
}


@pytest.mark.parametrize("consumer", sorted(CONSUMERS))
@pytest.mark.parametrize("case", sorted(BREAKDOWNS))
def test_breakdown_raises(case, consumer):
    a, d, message, step = BREAKDOWNS[case]
    with pytest.raises(SolverFailure, match=message) as err:
        CONSUMERS[consumer](diagonal(a), Preconditioner(diagonal(d)))
    assert err.value.iterations == step


def test_solve_spd_zero_preconditioner_raises():
    A = CountingOperator(diagonal(np.geomspace(1.0, 100.0, 30)))
    with pytest.raises(SolverFailure, match="singular") as err:
        solve_spd(A, np.ones(30), Preconditioner(sp.csr_matrix((30, 30))))
    assert err.value.iterations == 0
    assert A.calls == 0


def test_extreme_eigs_zero_preconditioner_raises():
    A = CountingOperator(diagonal(np.geomspace(1.0, 100.0, 30)))
    with pytest.raises(SolverFailure, match="singular") as err:
        extreme_eigs(A, Preconditioner(sp.csr_matrix((30, 30))))
    assert err.value.iterations == 0
    assert A.calls == 0


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


@pytest.mark.parametrize(
    "kwargs",
    [
        {"space": "h2"},
        {"beta": 0.0},
        {"beta": -1.0},
        {"beta": float("nan")},
        {"beta": float("inf")},
    ],
)
def test_gram_operator_rejects(lshape2d, kwargs):
    with pytest.raises(DimensionError):
        gram_operator(lshape2d, **kwargs)


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


def test_extreme_eigs_given_lambda_min_stops_on_the_top(lshape2d):
    mesh = uniform_refine(lshape2d)
    op = gram_operator(mesh, "hm1", 1, beta=0.1)
    P = diagonal_preconditioner(mesh, 1)
    floor = diagonal_lambda_min(op, mesh, 1)
    lmin, lmax, kappa = dense_condition_number(op, P)
    two_sided = extreme_eigs(op, P, tol=1e-8)
    report = extreme_eigs(op, P, tol=1e-8, lambda_min=floor)
    assert (report.lambda_min, report.residual_min) == (floor, 0.0)
    assert report.iterations_max < two_sided.iterations_max
    assert report.residual_max <= 1e-8
    assert abs(report.lambda_max - lmax) <= report.residual_max * report.lambda_max
    assert floor == pytest.approx(lmin, rel=1e-12)
    assert report.kappa == pytest.approx(kappa, rel=1e-8)


def test_extreme_eigs_rejects_lambda_min_above_the_spectrum(lshape2d):
    op = gram_operator(lshape2d, "hm1", 0, beta=0.1)
    P = diagonal_preconditioner(lshape2d, 0)
    floor = diagonal_lambda_min(op, lshape2d, 0)
    with pytest.raises(SolverFailure, match="below the given lambda_min"):
        extreme_eigs(op, P, lambda_min=2.0 * floor)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"lambda_min": 0.0},
        {"lambda_min": -1.0},
        {"lambda_min": float("nan")},
        {"lambda_min": float("inf")},
        {"max_iter": 0},
    ],
)
def test_extreme_eigs_rejects(kwargs):
    A = diagonal([1.0, 2.0, 3.0])
    with pytest.raises(DimensionError):
        extreme_eigs(A, identity(3), **kwargs)


@pytest.mark.parametrize("degree", [0, 1])
def test_single_simplex_has_no_closed_form(degree):
    # one element against three free vertices: the count certifies nothing,
    # and the bottom of the spectrum indeed lies above beta * mu
    mesh = unit_right_triangle()
    op = gram_operator(mesh, "tilde", degree, beta=0.1)
    P = diagonal_preconditioner(mesh, degree)
    assert diagonal_lambda_min(op, mesh, degree) is None
    lmin, lmax, _ = dense_condition_number(op, P)
    assert lmin > 1.5 * 0.1 * (1.0 if degree == 0 else 0.5)
    report = extreme_eigs(op, P, tol=1e-8, lambda_min=None)
    assert report.residual_min > 0.0
    assert_ritz_bounds_hold(report, 1e-8, lmin, lmax)


def test_diagonal_kappa_on_uniform_tilde_meshes(lshape2d):
    # past the dense oracle's reach: on uniform 2d meshes the diagonally
    # scaled tilde operator has lambda_max = 4^L + beta and lambda_min =
    # beta mu, so kappa = 10 4^L + 1 (p = 0) and 20 4^L + 2 (p = 1)
    mesh = lshape2d
    for level in range(1, 7):
        if level > 1:
            mesh = uniform_refine(mesh)
        for degree, want in ((0, 10 * 4**level + 1), (1, 20 * 4**level + 2)):
            basis = basis_set(mesh, degree)
            op = gram_operator(mesh, "tilde", degree, beta=0.1, basis=basis)
            P = diagonal_preconditioner(mesh, degree, basis=basis)
            report = extreme_eigs(op, P, lambda_min=diagonal_lambda_min(op, mesh, degree))
            assert report.residual_min == 0.0
            assert report.kappa == pytest.approx(want, rel=EIGS_TOL), (level, degree)


def ritz_through_eigh_tridiagonal(diagonal, off_diagonal, coupling):
    """Reference for ``_extreme_ritz``: both ends through eigh_tridiagonal."""
    k = len(diagonal)
    d = np.asarray(diagonal)
    e = np.asarray(off_diagonal)
    ends = []
    for index in (k - 1, 0):
        theta, vector = scipy.linalg.eigh_tridiagonal(
            d, e, select="i", select_range=(index, index)
        )
        ends.append((float(theta[0]), float(coupling * abs(vector[-1, 0]))))
    rounding = k * float(np.finfo(float).eps) * ends[0][0]
    (lam_max, res_max), (lam_min, res_min) = ends
    return (
        lam_max,
        lam_min,
        (res_max + rounding) / lam_max,
        (res_min + rounding) / lam_min,
        rounding,
    )


@given(
    k=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    split=st.booleans(),
    repeated=st.booleans(),
)
@example(k=1, seed=0, split=False, repeated=False)
@example(k=2, seed=0, split=True, repeated=True)
@example(k=300, seed=1, split=True, repeated=True)
def test_extreme_ritz_matches_eigh_tridiagonal(k, seed, split, repeated):
    # T_k as Lanczos builds it: positive diagonal, off-diagonal >= 0; an
    # exact zero splits it into blocks, and equal diagonals with a split
    # give repeated eigenvalues
    rng = np.random.default_rng(seed)
    if repeated:
        d = rng.choice([2.0, 3.0], size=k)
    else:
        d = rng.uniform(1.0, 10.0, size=k)
    e = rng.uniform(0.0, 0.45, size=k - 1)
    if split and k > 1:
        e[rng.integers(k - 1)] = 0.0
    coupling = float(rng.uniform(1e-6, 1.0))
    got = _extreme_ritz(list(d), list(e), coupling)
    want = ritz_through_eigh_tridiagonal(list(d), list(e), coupling)
    assert got == want


@pytest.mark.parametrize("routine", ["dstebz", "dstein"])
def test_extreme_ritz_lapack_failure_raises(routine, monkeypatch):
    real = getattr(spectral, routine)

    def failing(*args):
        *out, info = real(*args)
        return (*out, 1)

    monkeypatch.setattr(spectral, routine, failing)
    with pytest.raises(SolverFailure, match=routine):
        _extreme_ritz([2.0, 3.0, 4.0], [0.5, 0.5], 1.0)


@pytest.mark.parametrize(
    "diagonal, off_diagonal",
    [([float("inf")], []), ([2.0, float("nan")], [0.5]), ([2.0, 3.0], [float("inf")])],
)
def test_extreme_ritz_non_finite_raises(diagonal, off_diagonal):
    with pytest.raises(SolverFailure, match="non-finite"):
        _extreme_ritz(diagonal, off_diagonal, 1.0)


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


def test_extreme_eigs_runs_a_small_space_to_the_end(lshape2d):
    # the start vector of `quasidiag --dim 2 --levels 1 --seed 157000`: the
    # relative Ritz bound met tol at step 9 of 12 on an interior Ritz value,
    # kappa 5.004 against the dense 5.316
    op = gram_operator(lshape2d, "hm1", 0, beta=0.1)
    P = quasi_diagonal_preconditioner(lshape2d, "hm1", 0, alpha=0.01)
    assert op.dim <= spectral.FULL_LANCZOS_DIM
    seed = np.random.SeedSequence(157000, spawn_key=(1, 0))
    report = extreme_eigs(op, P, seed=seed)
    lmin, lmax, kappa = dense_condition_number(op, P)
    assert report.iterations_max >= op.dim
    assert report.kappa == pytest.approx(kappa, rel=1e-2)
    assert report.lambda_max == pytest.approx(lmax, rel=1e-2)


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
