"""Discrete dual-norm Gram operators and extreme-eigenvalue estimation.

The Gram operator of the negative-order norm on the piecewise space is

    A x = M^t R^{-1} (M x) + beta L x

with M the P1/piecewise pairing, R the P1 Gram matrix of the primal norm
(stiffness for the zero-boundary variant, stiffness plus mass for the free
variant) and L the mesh-weighted piecewise mass matrix.  When the Dirichlet
P1 space is empty the first term vanishes and A reduces to beta L.  R is
factorized up to ``DIRECT_SOLVE_LIMIT`` rows; past it, R^{-1} is conjugate
gradients preconditioned by a V-cycle on the mesh's refinement record.

Every operator is applied as ``operator @ x``: ndarrays, sparse matrices
and :class:`GramOperator` alike.  The only eigenvalue loop is
:func:`extreme_eigs`, one Lanczos run per estimate, read off the
coefficients of preconditioned conjugate gradients on A x = b.  It needs
only A and P applies, no solves with P, and it stops on an a-posteriori
bound: each end of the spectrum is within a relative Ritz residual ``tol``
of an eigenvalue of the preconditioned operator, or the top end alone when
the caller gives the bottom one in closed form.  The linear solves of
:func:`solve_spd` run the same conjugate-gradient recurrence, :func:`_pcg`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg.lapack import dstebz, dstein
from scipy.sparse.linalg import splu

from .assembly import (
    BasisSet,
    assemble_L,
    assemble_M,
    assemble_R,
    basis_set,
    p1_vertex_ids,
)
from .errors import DimensionError, EigsNotConverged, EmptySpace, SolverFailure
from .mesh import SimplicialMesh
from .precond import SPACES, Preconditioner

# sparse factorization limit for the inner P1 solve; larger systems are
# solved by conjugate gradients to INNER_CG_TOL, preconditioned by a V-cycle
# on the mesh's refinement hierarchy
DIRECT_SOLVE_LIMIT = 50_000
INNER_CG_TOL = 1e-12

# the V-cycle smooths with JACOBI_SWEEPS damped Jacobi sweeps before and as
# many after each coarse correction, and factorizes its first level of at
# most COARSEST_ROWS rows
JACOBI_WEIGHT = 2.0 / 3.0
JACOBI_SWEEPS = 2
COARSEST_ROWS = 500

# defaults of the extreme-eigenvalue estimate, shared by the experiment
# driver and the command line: the relative Ritz residual bound at which
# Lanczos stops, and its step cap
EIGS_TOL = 1e-4
EIGS_MAX_ITER = 50_000

# Lanczos on a space of at most this many dofs does not stop before step n
# (or before r . P r vanishes): the relative Ritz bound cannot tell an
# interior Ritz value from an end of the spectrum, and on a space this small
# the full run costs little and its Ritz values are the whole spectrum
FULL_LANCZOS_DIM = 20


# ---------------------------------------------------------------------------
# conjugate gradients


def _pcg(operator, preconditioner, r):
    """Preconditioned conjugate gradients from the residual ``r``.

    The one CG recurrence, under both :func:`solve_spd` and
    :func:`extreme_eigs`; ``r`` is updated in place.  Each step first
    rescales r, P r and the direction p to r . P r = 1, so that long runs
    do not underflow and the step length is 1 / (p . A p).  It yields
    (p . A p, beta, root, p): beta is the next r . P r, the ratio of
    successive r . P r; root is sqrt(r . P r), the factor the step divided
    r by; p is the rescaled direction, overwritten by the next step.  The
    true r and p are the rescaled ones times the product of the roots.

    The run ends when r reaches 0.  p . A p <= 0 (an operator that is not
    positive definite) raises :class:`SolverFailure` before it is yielded,
    as does an r . P r that shows P is not positive definite on r (see
    :func:`_check_residual`).
    """
    z = preconditioner.apply(r)
    beta = _check_residual(r, z, 0)
    p = np.zeros_like(r)
    k = 0
    while beta != 0.0:
        k += 1
        root = np.sqrt(beta)
        r /= root
        z /= root
        p *= root
        p += z
        ap = operator @ p
        curvature = float(p @ ap)
        if curvature <= 0.0:
            raise SolverFailure(
                "conjugate gradients met a non-positive curvature direction",
                iterations=k,
            )
        alpha = 1.0 / curvature
        r -= alpha * ap
        z = preconditioner.apply(r)
        beta = _check_residual(r, z, k)
        yield curvature, beta, root, p


# an SPD P of condition number kappa has r . P r >= |r| |P r| / sqrt(kappa)
# for every r, so a cosine below sqrt(eps) needs kappa > 1 / eps
SINGULAR_COSINE = float(np.sqrt(np.finfo(float).eps))


def _check_residual(r, z, k: int) -> float:
    """r . P r from r and z = P r, checked for a positive definite P.

    Raises :class:`SolverFailure` when r . P r < 0, and when r is not 0 but
    r . P r is at most ``SINGULAR_COSINE`` |r| |P r| (0 included): P is
    then singular to working precision on r, and a small r . P r would
    read as convergence although r is not small.
    """
    beta = float(r @ z)
    if beta < 0.0:
        raise SolverFailure("the preconditioner is not positive definite", iterations=k)
    if beta <= SINGULAR_COSINE * np.linalg.norm(r) * np.linalg.norm(z) and r.any():
        raise SolverFailure(
            "the preconditioner is singular on the residual: r . P r vanishes "
            "although r does not",
            iterations=k,
        )
    return beta


def solve_spd(operator, rhs, preconditioner, tol: float = INNER_CG_TOL) -> np.ndarray:
    """Preconditioned conjugate gradients for SPD systems.

    ``preconditioner`` is anything with a symmetric positive definite
    ``apply``.  Stops once sqrt(r . P r) is at most ``tol`` times its value
    at the right-hand side.  :class:`SolverFailure` is raised after 10 times
    the dimension in steps, and on the breakdowns of :func:`_pcg`.
    """
    r = np.array(rhs, dtype=float).ravel()
    cap = 10 * r.size
    x = np.zeros(r.size)
    scale = 1.0  # the product of the roots: the true r is scale times r
    steps = _pcg(operator, preconditioner, r)
    for k, (curvature, beta, root, p) in enumerate(steps, 1):
        if k == 1:
            initial = root
        scale *= root
        x += (scale / curvature) * p
        residual = scale * np.sqrt(beta) / initial
        if residual <= tol:
            return x
        if k == cap:
            raise SolverFailure(
                f"conjugate gradients did not reach tol={tol} within {cap} iterations",
                residual=residual,
                iterations=cap,
            )
    return x


def _vertex_prolongation(steps, num_coarse: int) -> sp.csr_matrix:
    """Interpolation from the first ``num_coarse`` vertices through ``steps``.

    Each step keeps the old vertices and gives a new one the mean of its
    parent edge's ends, [I; (e_lo + e_hi) / 2]; the steps are composed.
    """
    q = sp.identity(num_coarse, format="csr")
    for step in steps:
        lo, hi = step.parent_edges.T
        q = sp.vstack([q, 0.5 * (q[lo] + q[hi])], format="csr")
    return q


class _VCycle:
    """Symmetric V-cycle for a P1 Gram matrix on a nested mesh hierarchy.

    ``matrix`` acts on the P1 space of ``mesh`` spanned by the ascending
    vertex ids ``ids``.  The coarse levels come from ``mesh.ancestry``:
    each has at most half the rows of the next finer one, and coarsening
    stops at the first level of at most ``COARSEST_ROWS`` rows, which is
    factorized.  The prolongation between two levels composes the
    refinement steps in between.  Nested meshes share their boundary, so a
    coarse level's ids are the fine ids below its vertex count.  Coarse
    matrices are the Galerkin products P^t R P.  Equal Jacobi sweep counts
    before and after the coarse correction make ``apply`` symmetric.
    """

    def __init__(self, matrix: sp.spmatrix, mesh: SimplicialMesh, ids: np.ndarray):
        steps = mesh.ancestry
        counts = [step.num_coarse for step in steps] + [mesh.num_vertices]
        rows = np.searchsorted(ids, counts)
        self.matrices, self.prolongations = [matrix.tocsr()], []
        level = len(steps)
        while rows[level] > COARSEST_ROWS:
            coarser = [j for j in range(level) if 0 < 2 * rows[j] <= rows[level]]
            if not coarser:
                break
            j = coarser[-1]
            vertex_p = _vertex_prolongation(steps[j:level], counts[j])
            p = vertex_p[ids[: rows[level]]][:, ids[: rows[j]]].tocsr()
            self.prolongations.append(p)
            self.matrices.append((p.T @ self.matrices[-1] @ p).tocsr())
            level = j
        self.weights = [JACOBI_WEIGHT / a.diagonal() for a in self.matrices[:-1]]
        self.coarsest = splu(self.matrices[-1].tocsc())

    def apply(self, b) -> np.ndarray:
        return self._cycle(0, np.asarray(b, dtype=float))

    def _cycle(self, level: int, b: np.ndarray) -> np.ndarray:
        if level == len(self.prolongations):
            return self.coarsest.solve(b)
        a, weight, p = self.matrices[level], self.weights[level], self.prolongations[level]
        x = weight * b
        for _ in range(JACOBI_SWEEPS - 1):
            x += weight * (b - a @ x)
        x += p @ self._cycle(level + 1, p.T @ (b - a @ x))
        for _ in range(JACOBI_SWEEPS):
            x += weight * (b - a @ x)
        return x


def _spd_solver(matrix: sp.spmatrix, mesh: SimplicialMesh, boundary_condition: str):
    """Solve with the P1 Gram matrix of ``mesh``.

    A sparse factorization up to ``DIRECT_SOLVE_LIMIT`` rows, and for a mesh
    without refinement record; else conjugate gradients to INNER_CG_TOL,
    preconditioned by a V-cycle.
    """
    if matrix.shape[0] <= DIRECT_SOLVE_LIMIT or not mesh.ancestry:
        lu = splu(matrix.tocsc())
        return lu.solve
    vcycle = _VCycle(matrix, mesh, p1_vertex_ids(mesh, boundary_condition))
    return lambda b: solve_spd(matrix, b, preconditioner=vcycle, tol=INNER_CG_TOL)


# ---------------------------------------------------------------------------
# Gram operator


class GramOperator:
    """Symmetric positive definite action of the discrete dual norm.

    ``op @ x`` is ``op.apply(x)``.
    """

    def __init__(self, pairing, r_solve, weighted_mass, beta: float):
        self.pairing = pairing
        # for CSR the transpose is a CSC view sharing the arrays
        self._pairing_t = pairing.T if pairing is not None else None
        self.r_solve = r_solve
        self.weighted_mass = weighted_mass.tocsr()
        self.beta = float(beta)
        self.dim = weighted_mass.shape[0]
        self.shape = (self.dim, self.dim)

    def __matmul__(self, x) -> np.ndarray:
        # a call, not an alias, so that replacing ``apply`` on the class
        # also replaces ``@``
        return self.apply(x)

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.dim:
            raise DimensionError(f"expected vector of size {self.dim}, got {x.size}")
        out = self.beta * (self.weighted_mass @ x)
        if self.pairing is not None:
            out = out + self._pairing_t @ self.r_solve(self.pairing @ x)
        return out


def gram_operator(
    mesh: SimplicialMesh,
    space: str = "hm1",
    degree: int = 0,
    beta: float = 0.1,
    basis: BasisSet | None = None,
) -> GramOperator:
    """Assemble the Gram operator of the requested dual-norm variant.

    space "hm1" pairs against the zero-boundary P1 space (stiffness R);
    "tilde" pairs against the free P1 space (stiffness plus mass).  A mesh
    whose Dirichlet space is empty yields the pure beta L operator.
    """
    if space not in SPACES:
        raise DimensionError(f"space must be one of {SPACES}, got {space!r}")
    if not 0.0 < beta < np.inf:
        raise DimensionError(f"beta must be finite and positive, got {beta}")
    if basis is None:
        basis = basis_set(mesh, degree)
    weighted_mass = assemble_L(mesh, basis)
    bc = "dirichlet" if space == "hm1" else "free"
    try:
        gram_p1 = assemble_R(mesh, bc)
        pairing = assemble_M(mesh, basis, bc)
        r_solve = _spd_solver(gram_p1, mesh, bc)
    except EmptySpace:
        pairing = None
        r_solve = None
    return GramOperator(pairing, r_solve, weighted_mass, beta)


# ---------------------------------------------------------------------------
# extreme eigenvalues


@dataclass(frozen=True)
class SpectralReport:
    """Extreme-eigenvalue estimates of a preconditioned system.

    ``iterations_max`` and ``iterations_min`` count the Lanczos steps of the
    run that produced both ends (they are equal).  ``residual_max`` and
    ``residual_min`` are the relative Ritz residual bounds at the end of the
    run: the preconditioned operator has an eigenvalue within
    ``residual_max * lambda_max`` of ``lambda_max``, and likewise at the
    bottom.  ``residual_min == 0`` means ``lambda_min`` was given to the
    estimate in closed form and is exact.
    """

    lambda_max: float
    lambda_min: float
    kappa: float
    iterations_max: int
    iterations_min: int
    residual_max: float
    residual_min: float


def _ritz_end(d, e, index: int):
    """Eigenvalue ``index`` (1-based, ascending) of the tridiagonal (d, e)
    and the last entry of its unit eigenvector.

    LAPACK bisection (dstebz) for the value, inverse iteration (dstein) for
    the vector: the routines, and the arguments, that
    ``scipy.linalg.eigh_tridiagonal(d, e, select="i")`` passes them, called
    without that wrapper's argument handling.  A failed routine raises
    :class:`SolverFailure`.
    """
    m, w, iblock, isplit, info = dstebz(d, e, 2, 0.0, 1.0, index, index, 0.0, "B")
    if info != 0 or m != 1:
        raise SolverFailure(
            f"tridiagonal bisection (dstebz) failed: info={info}, {m} values",
            iterations=len(d),
        )
    vector, info = dstein(d, e, w[:m], iblock, isplit)
    if info != 0:
        raise SolverFailure(
            f"tridiagonal inverse iteration (dstein) failed: info={info}",
            iterations=len(d),
        )
    return float(w[0]), float(vector[-1, 0])


def _extreme_ritz(diagonal, off_diagonal, coupling):
    """Extreme Ritz values of T_k and their relative residual bounds.

    ``coupling`` is the entry that would join T_k to the next Lanczos
    vector; a Ritz pair (theta, s) of T_k has residual coupling * |s_k|.
    The bound adds k * eps * theta_max, the rounding level of k Lanczos
    steps and of the tridiagonal eigensolver, below which it means nothing.
    Returns (lambda_max, lambda_min, bound_max, bound_min, rounding).  A
    non-finite entry of T_k raises :class:`SolverFailure`.
    """
    k = len(diagonal)
    d = np.asarray(diagonal)
    e = np.asarray(off_diagonal)
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise SolverFailure("the Lanczos matrix has a non-finite entry", iterations=k)
    if k == 1:
        top = bottom = (float(d[0]), 1.0)
    else:
        top, bottom = _ritz_end(d, e, k), _ritz_end(d, e, 1)
    ends = [(theta, float(coupling * abs(last))) for theta, last in (top, bottom)]
    rounding = k * float(np.finfo(float).eps) * ends[0][0]
    (lam_max, res_max), (lam_min, res_min) = ends
    return (
        lam_max,
        lam_min,
        (res_max + rounding) / lam_max,
        (res_min + rounding) / lam_min,
        rounding,
    )


def extreme_eigs(
    operator,
    preconditioner: Preconditioner,
    tol: float = EIGS_TOL,
    max_iter: int = EIGS_MAX_ITER,
    seed=0,
    lambda_min: float | None = None,
) -> SpectralReport:
    """Extreme eigenvalues of the preconditioned operator, and their ratio.

    One preconditioned conjugate-gradient run on A x = b, from a random b
    drawn from ``seed``, is a Lanczos process for x -> P(A x), which is
    self-adjoint in the P^{-1} inner product.  Its step lengths alpha_j and
    direction updates beta_j give the Lanczos matrix T_k, tridiagonal with
    diagonal 1/alpha_j + beta_{j-1}/alpha_{j-1} and off-diagonal
    sqrt(beta_j)/alpha_j.  The extreme eigenvalues theta of T_k estimate
    lambda_min and lambda_max from the inside.

    A Ritz pair (theta, s) of T_k has residual sqrt(beta_k)/alpha_k * |s_k|,
    so P A has an eigenvalue within that distance of theta (the bound also
    counts k * eps * lambda_max of rounding).  The run stops once this
    bound, relative to theta, is at most ``tol`` at both ends; the
    report's ``residual_*`` fields hold the final relative bounds and
    ``iterations_*`` the number of Lanczos steps (one A apply and one P
    apply each).  The bound does not say which eigenvalue theta is near;
    with a random start, the nearest is the extreme one unless ``tol`` is
    loose enough to stop before the end of the spectrum is resolved.  So
    on a space of at most ``FULL_LANCZOS_DIM`` dofs the run does not stop
    before step n (or ``max_iter``, if smaller) unless r . P r reaches 0,
    and theta is then an eigenvalue up to rounding.

    ``lambda_min``, when given, is the exact smallest eigenvalue of P A
    (say from :func:`quasidiag.precond.diagonal_lambda_min`).  The run then
    stops on the top bound alone and reports that value with
    ``residual_min = 0``.  Ritz values cannot lie below the spectrum, so a
    theta_min below ``lambda_min`` by more than the rounding term raises
    :class:`SolverFailure`: the given value, or the operator, is wrong.

    Only O(n) work vectors are kept: no Krylov basis, no
    reorthogonalization.  Running out of ``max_iter`` steps raises
    :class:`EigsNotConverged` carrying the estimates so far; a breakdown of
    the recurrence (see :func:`_pcg`) raises :class:`SolverFailure`.  A
    ``max_iter`` below 1, or a ``lambda_min`` that is not finite and
    positive, raises :class:`DimensionError`.
    """
    if max_iter < 1:
        raise DimensionError(f"max_iter must be at least 1, got {max_iter}")
    if lambda_min is not None and not 0.0 < lambda_min < np.inf:
        raise DimensionError(
            f"lambda_min must be finite and positive, got {lambda_min}"
        )
    r = np.random.default_rng(seed).standard_normal(preconditioner.dim)
    min_steps = min(r.size, max_iter) if r.size <= FULL_LANCZOS_DIM else 1
    steps = zip(range(1, max_iter + 1), _pcg(operator, preconditioner, r))
    diagonal, off_diagonal = [], []
    next_check = 1
    for k, (curvature, ratio, root, _) in steps:
        if k == 1:
            diagonal.append(curvature)
        else:
            diagonal.append(curvature + beta / alpha)
            off_diagonal.append(root / alpha)
        alpha, beta = 1.0 / curvature, ratio
        if k >= next_check or k == max_iter or beta == 0.0:
            lam_max, lam_min, res_max, res_min, rounding = _extreme_ritz(
                diagonal, off_diagonal, np.sqrt(beta) / alpha
            )
            if lambda_min is not None:
                if lam_min < lambda_min - rounding:
                    raise SolverFailure(
                        f"Ritz value {lam_min} lies below the given "
                        f"lambda_min {lambda_min}",
                        iterations=k,
                    )
                lam_min, res_min = lambda_min, 0.0
            if max(res_max, res_min) <= tol and (k >= min_steps or beta == 0.0):
                return SpectralReport(
                    lam_max, lam_min, lam_max / lam_min, k, k, res_max, res_min
                )
            # every step at first, then every k/20 steps
            next_check = k + max(1, k // 20)
    if not diagonal:
        raise SolverFailure("the start vector is zero: the space is empty", iterations=0)
    report = SpectralReport(
        lam_max, lam_min, lam_max / lam_min, k, k, res_max, res_min
    )
    raise EigsNotConverged(
        f"Lanczos stopped after {k} steps with relative Ritz residuals "
        f"{res_max:.2e} (lambda_max {lam_max}) and {res_min:.2e} "
        f"(lambda_min {lam_min}), above tol={tol}",
        report=report,
    )


# ---------------------------------------------------------------------------
# dense oracles


def dense_action(operator) -> np.ndarray:
    """Materialize an operator column by column (small problems only)."""
    return np.column_stack([operator @ e for e in np.eye(operator.shape[0])])


def dense_condition_number(operator, preconditioner: Preconditioner):
    """Spectrum of the preconditioned system via a dense generalized solve.

    Returns (lambda_min, lambda_max, kappa) of P(A .), computed from the
    symmetric-definite pencil (P A P, P).
    """
    action = preconditioner.to_dense()
    gram = dense_action(operator)
    gram = 0.5 * (gram + gram.T)
    product = action @ gram @ action
    product = 0.5 * (product + product.T)
    eigs = scipy.linalg.eigh(product, action, eigvals_only=True)
    return float(eigs[0]), float(eigs[-1]), float(eigs[-1] / eigs[0])
