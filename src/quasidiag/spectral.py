"""Discrete dual-norm Gram operators and extreme-eigenvalue estimation.

The Gram operator of the negative-order norm on the piecewise space is

    A x = M^t R^{-1} (M x) + beta L x

with M the P1/piecewise pairing, R the P1 Gram matrix of the primal norm
(stiffness for the zero-boundary variant, stiffness plus mass for the free
variant) and L the mesh-weighted piecewise mass matrix.  When the Dirichlet
P1 space is empty the first term vanishes and A reduces to beta L.

Every operator is applied as ``operator @ x``: ndarrays, sparse matrices
and :class:`GramOperator` alike.  The only eigenvalue loop is
:func:`extreme_eigs`, one Lanczos run per estimate, read off the
coefficients of preconditioned conjugate gradients on A x = b.  It needs
only A and P applies, no solves with P, and it stops on an a-posteriori
bound: each end of the spectrum is within a relative Ritz residual ``tol``
of an eigenvalue of the preconditioned operator.  The top eigenvalue of
the pencil (L, A) is the reciprocal of the bottom end of the estimate for
A preconditioned by L^{-1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import inv, splu

from .assembly import BasisSet, assemble_L, assemble_M, assemble_R, basis_set
from .errors import DimensionError, EigsNotConverged, EmptySpace, SolverFailure
from .mesh import SimplicialMesh
from .precond import SPACES, Preconditioner

# sparse factorization limit for the inner P1 solve; larger systems fall
# back to tightly converged conjugate gradients
DIRECT_SOLVE_LIMIT = 50_000
INNER_CG_TOL = 1e-12

# defaults of the extreme-eigenvalue estimate, shared by the experiment
# driver and the command line: the relative Ritz residual bound at which
# Lanczos stops, and its step cap
EIGS_TOL = 1e-4
EIGS_MAX_ITER = 50_000


# ---------------------------------------------------------------------------
# conjugate gradients


def solve_spd(
    operator,
    rhs,
    preconditioner: Preconditioner | None = None,
    tol: float = 1e-10,
    max_iter: int | None = None,
    return_iterations: bool = False,
):
    """Preconditioned conjugate gradients for SPD systems.

    Stops once the preconditioned residual norm falls below ``tol`` relative
    to the preconditioned right-hand side; iteration cap 10 times the
    dimension (or ``max_iter``), beyond which :class:`SolverFailure` is
    raised.
    """
    b = np.asarray(rhs, dtype=float).ravel()
    n = b.size
    apply_p = preconditioner.apply if preconditioner is not None else lambda v: v
    cap = max_iter if max_iter is not None else 10 * n

    x = np.zeros(n)
    r = b.copy()
    z = apply_p(r)
    rz = float(r @ z)
    target = tol * np.sqrt(max(rz, 0.0))
    if rz == 0.0:
        return (x, 0) if return_iterations else x
    p = z.copy()
    for it in range(1, cap + 1):
        ap = operator @ p
        denom = float(p @ ap)
        if denom <= 0.0:
            raise SolverFailure(
                "conjugate gradients met a non-positive curvature direction",
                residual=np.sqrt(max(rz, 0.0)),
                iterations=it,
            )
        step = rz / denom
        x += step * p
        r -= step * ap
        z = apply_p(r)
        rz_next = float(r @ z)
        if np.sqrt(max(rz_next, 0.0)) <= target:
            return (x, it) if return_iterations else x
        p = z + (rz_next / rz) * p
        rz = rz_next
    raise SolverFailure(
        f"conjugate gradients did not reach tol={tol} within {cap} iterations",
        residual=float(np.sqrt(max(rz, 0.0)) / (target / tol)),
        iterations=cap,
    )


def _spd_solver(matrix: sp.spmatrix):
    """Exact factorization when affordable, else tight Jacobi-PCG."""
    if matrix.shape[0] <= DIRECT_SOLVE_LIMIT:
        lu = splu(matrix.tocsc())
        return lu.solve
    jacobi = Preconditioner(sp.diags(1.0 / matrix.diagonal()))
    return lambda b: solve_spd(matrix, b, preconditioner=jacobi, tol=INNER_CG_TOL)


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
    if beta <= 0.0:
        raise DimensionError("beta must be positive")
    if basis is None:
        basis = basis_set(mesh, degree)
    weighted_mass = assemble_L(mesh, basis)
    bc = "dirichlet" if space == "hm1" else "free"
    try:
        gram_p1 = assemble_R(mesh, bc)
        pairing = assemble_M(mesh, basis, bc)
        r_solve = _spd_solver(gram_p1)
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
    bottom.
    """

    lambda_max: float
    lambda_min: float
    kappa: float
    iterations_max: int
    iterations_min: int
    residual_max: float
    residual_min: float


def _extreme_ritz(diagonal, off_diagonal, coupling):
    """Extreme Ritz values of T_k and their relative residual bounds.

    ``coupling`` is the entry that would join T_k to the next Lanczos
    vector; a Ritz pair (theta, s) of T_k has residual coupling * |s_k|.
    The bound adds k * eps * theta_max, the rounding level of k Lanczos
    steps and of the tridiagonal eigensolver, below which it means nothing.
    Returns (lambda_max, lambda_min, bound_max, bound_min).
    """
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
    )


def extreme_eigs(
    operator,
    preconditioner: Preconditioner,
    tol: float = EIGS_TOL,
    max_iter: int = EIGS_MAX_ITER,
    seed=0,
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
    loose enough to stop before the end of the spectrum is resolved.

    Only O(n) work vectors are kept: no Krylov basis, no
    reorthogonalization.  Running out of ``max_iter`` steps raises
    :class:`EigsNotConverged` carrying the estimates so far; a direction of
    non-positive curvature raises :class:`SolverFailure`.
    """
    rng = np.random.default_rng(seed)
    r = rng.standard_normal(preconditioner.dim)
    z = preconditioner.apply(r)
    beta = float(r @ z)
    if beta <= 0.0:
        raise SolverFailure("the preconditioner is not positive definite", iterations=0)
    p = np.zeros_like(r)
    diagonal, off_diagonal = [], []
    alpha = None
    next_check = 1
    for k in range(1, max_iter + 1):
        # r, z and p are rescaled to r.z = 1 every step; alpha and beta do
        # not depend on that scale, and long runs would otherwise underflow
        root = np.sqrt(beta)
        r /= root
        z /= root
        p *= root
        p += z
        ap = operator @ p
        curvature = float(p @ ap)
        if curvature <= 0.0:
            raise SolverFailure(
                "Lanczos met a non-positive curvature direction", iterations=k
            )
        entry = curvature
        if alpha is not None:
            entry += beta / alpha
            off_diagonal.append(root / alpha)
        diagonal.append(entry)
        alpha = 1.0 / curvature
        r -= alpha * ap
        z = preconditioner.apply(r)
        beta = float(r @ z)
        if k >= next_check or k == max_iter or beta <= 0.0:
            lam_max, lam_min, res_max, res_min = _extreme_ritz(
                diagonal, off_diagonal, np.sqrt(max(beta, 0.0)) / alpha
            )
            if max(res_max, res_min) <= tol:
                return SpectralReport(
                    lam_max, lam_min, lam_max / lam_min, k, k, res_max, res_min
                )
            # every step at first, then every k/20 steps
            next_check = k + max(1, k // 20)
        if beta <= 0.0:  # r vanished: T_k is exact up to rounding
            break
    report = SpectralReport(
        lam_max, lam_min, lam_max / lam_min, k, k, res_max, res_min
    )
    raise EigsNotConverged(
        f"Lanczos stopped after {k} steps with relative Ritz residuals "
        f"{res_max:.2e} (lambda_max {lam_max}) and {res_min:.2e} "
        f"(lambda_min {lam_min}), above tol={tol}",
        report=report,
    )


def pencil_max_eig(
    weighted_mass,
    operator,
    tol: float = EIGS_TOL,
    max_iter: int = EIGS_MAX_ITER,
    seed=0,
) -> float:
    """Largest generalized eigenvalue of L x = lambda A x.

    It equals 1 / lambda_min(L^{-1} A), the bottom end of one
    :func:`extreme_eigs` run preconditioned by L^{-1}.  L is block diagonal
    per element, so its sparse inverse keeps the pattern of L.
    """
    inverse = Preconditioner(inv(sp.csc_matrix(weighted_mass)))
    return 1.0 / extreme_eigs(operator, inverse, tol, max_iter, seed).lambda_min


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
