"""Quasi-diagonal and diagonal preconditioners for the discrete dual norms.

The central object is the facet-element incidence matrix I whose column for
facet E holds the piecewise-constant divergence coefficients of the
lowest-order Raviart-Thomas function attached to E: +|E|/|T+| on the first
neighbour and -|E|/|T-| on the second, a single entry |E|/|T| on boundary
facets.  Combined with the diagonal D = |E|^(-n/(n-1)) it gives the sparse
matrix I D I^t, with at most n + 2 nonzeros per row.

Every preconditioner is one assembled sparse matrix S plus at most one
rank-one coupling c, evaluated lazily:

    apply(x) = S x + c (c^t x)

- "hm1": S = I D I^t over all facets, no coupling;
- "tilde": S = I D I^t over interior facets only, and c = sqrt(alpha) on
  the characteristic functions, so that c c^t = alpha 1 1^t;
- degree 1 joins the bubble diagonal Dp to S as a diagonal block, which
  the coupling does not touch;
- the comparison preconditioner is S = diag(|T|^(-(n+2)/n), Dp); the
  smallest eigenvalue of the Gram operator it scales is known in closed
  form on most meshes (:func:`diagonal_lambda_min`).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .assembly import BasisSet, basis_set
from .errors import DimensionError
from .mesh import SimplicialMesh

# ---------------------------------------------------------------------------
# building blocks


def build_incidence(
    mesh: SimplicialMesh, include_boundary_facets: bool = True
) -> sp.csr_matrix:
    """Sparse (#elements, #facets) divergence-coefficient matrix.

    Columns follow facet enumeration order; with boundary facets excluded
    only interior columns are kept (same order).  Every column has at most
    two nonzeros, and weighting rows by element volumes makes interior
    columns sum to zero and boundary columns to |E|.
    """
    topo = mesh.facets
    interior = ~topo.is_boundary
    if include_boundary_facets:
        keep = np.arange(len(topo))
    else:
        keep = np.flatnonzero(interior)
    ncols = keep.size
    col_index = np.arange(ncols)

    plus = topo.plus[keep]
    minus = topo.minus[keep]
    measure = topo.measure[keep]

    rows = [plus]
    cols = [col_index]
    vals = [measure / mesh.volumes[plus]]
    has_minus = minus >= 0
    rows.append(minus[has_minus])
    cols.append(col_index[has_minus])
    vals.append(-measure[has_minus] / mesh.volumes[minus[has_minus]])

    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mesh.num_elements, ncols),
    ).tocsr()


def build_D(mesh: SimplicialMesh, include_boundary_facets: bool = True) -> np.ndarray:
    """Facet diagonal |E|^(-n/(n-1)), in facet enumeration order."""
    topo = mesh.facets
    measure = topo.measure
    if not include_boundary_facets:
        measure = measure[~topo.is_boundary]
    return measure ** (-mesh.dim / (mesh.dim - 1.0))


def build_Dp(mesh: SimplicialMesh, basis: BasisSet) -> np.ndarray:
    """Bubble diagonal (|T|^(1/n) ||chi_{T,j}||)^(-2), (element, bubble) order.

    Degree 0 has no bubbles and yields a size-0 diagonal.
    """
    if basis.degree == 0:
        return np.empty(0)
    weight = basis.mesh.volumes ** (2.0 / basis.mesh.dim)
    return 1.0 / (weight[:, None] * basis.bubble_norms_sq).ravel()


def build_C(mesh: SimplicialMesh) -> np.ndarray:
    """Element diagonal |T|^((n+2)/n) of the comparison scaling."""
    return mesh.volumes ** ((mesh.dim + 2.0) / mesh.dim)


# ---------------------------------------------------------------------------
# the preconditioner


class Preconditioner:
    """Symmetric positive definite action x -> S x + c (c . x).

    ``matrix`` is the assembled sparse S; ``coupling`` is the optional
    vector c of the rank-one term, kept out of S so that S stays sparse.
    ``apply`` evaluates the action; ``solve`` inverts it through a sparse
    LU factorization of S, or of the bordered matrix [[S, c], [c^t, -1]]
    when a coupling is present, built on first use.  The estimator never
    calls ``solve``: its users are the LOBPCG cross-check of the tests
    (the B operator of the pencil (A, P^{-1})) and the benchmark tracer,
    which wraps it on every preconditioner it builds.  ``to_dense``
    materializes the action for oracle comparisons.
    """

    def __init__(self, matrix: sp.spmatrix, coupling=None):
        self.matrix = matrix
        self.dim = matrix.shape[0]
        if coupling is not None:
            coupling = np.asarray(coupling, dtype=float).ravel()
            if coupling.size != self.dim:
                raise DimensionError("coupling does not match the matrix size")
        self.coupling = coupling
        self._factor = None

    def _check(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.dim:
            raise DimensionError(f"expected vector of size {self.dim}, got {x.size}")
        return x

    def apply(self, x) -> np.ndarray:
        x = self._check(x)
        out = self.matrix @ x
        if self.coupling is not None:
            out += self.coupling * (self.coupling @ x)
        return out

    def solve(self, x) -> np.ndarray:
        x = self._check(x)
        if self._factor is None:
            matrix = self.matrix
            if self.coupling is not None:
                # [S, c; c^t, -1][z; w] = [x; 0] eliminates to (S + c c^t) z = x
                column = sp.csc_matrix(self.coupling[:, None])
                matrix = sp.bmat([[matrix, column], [column.T, [[-1.0]]]])
            # S has symmetric structure, so order on A^t + A; partial
            # pivoting stays on because the bordered matrix is indefinite
            self._factor = splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")
        if self.coupling is None:
            return self._factor.solve(x)
        return self._factor.solve(np.append(x, 0.0))[:-1]

    def to_dense(self) -> np.ndarray:
        dense = self.matrix.toarray()
        if self.coupling is not None:
            dense += np.outer(self.coupling, self.coupling)
        return dense


# ---------------------------------------------------------------------------
# factories

SPACES = ("hm1", "tilde")


def quasi_diagonal_preconditioner(
    mesh: SimplicialMesh,
    space: str = "hm1",
    degree: int = 0,
    alpha: float = 0.01,
    basis: BasisSet | None = None,
) -> Preconditioner:
    """Quasi-diagonal preconditioner of the requested dual-norm family.

    space "hm1" uses all facets; "tilde" restricts to interior facets and
    adds the rank-one constant coupling weighted by alpha on the
    characteristic functions.  Degree 1 appends the bubble diagonal as an
    independent block.
    """
    if space not in SPACES:
        raise DimensionError(f"space must be one of {SPACES}, got {space!r}")
    if space == "tilde" and not 0.0 < alpha < np.inf:
        raise DimensionError(f"alpha must be finite and positive, got {alpha}")
    if basis is None:
        basis = basis_set(mesh, degree)
    boundary = space == "hm1"
    # I sqrt(D) (I sqrt(D))^t makes the stored S exactly symmetric
    scaled = build_incidence(mesh, include_boundary_facets=boundary) @ sp.diags(
        np.sqrt(build_D(mesh, include_boundary_facets=boundary))
    )
    bubbles = sp.diags(build_Dp(mesh, basis))
    matrix = sp.block_diag([scaled @ scaled.T, bubbles], format="csr")
    coupling = None
    if space == "tilde":
        coupling = np.zeros(matrix.shape[0])
        coupling[: mesh.num_elements] = np.sqrt(alpha)
    return Preconditioner(matrix, coupling)


def diagonal_preconditioner(
    mesh: SimplicialMesh, degree: int = 0, basis: BasisSet | None = None
) -> Preconditioner:
    """Comparison preconditioner: inverse element diagonal, plus bubbles."""
    if basis is None:
        basis = basis_set(mesh, degree)
    return Preconditioner(
        sp.diags(np.concatenate([1.0 / build_C(mesh), build_Dp(mesh, basis)]))
    )


def diagonal_lambda_min(gram, mesh: SimplicialMesh, degree: int = 0) -> float | None:
    """Smallest eigenvalue of the diagonally scaled Gram operator, or None.

    ``gram`` is the operator A = M^t R^{-1} M + beta L of ``mesh``.  Since
    A >= beta L, lambda_min(P A) >= beta mu with mu = lambda_min(P L) for
    the comparison P.  P L is block diagonal per element: 1 on the
    characteristic function, and for degree 1 ((n + 1) I - 1 1^t) / n on
    the bubbles, with eigenvalues 1/n (eigenvector 1) and (n + 1)/n.  So
    mu = 1 for degree 0 and 1/n for degree 1, with one eigenvector per
    element.  Those nE vectors meet the kernel of M once nE exceeds the
    rows of M (0 when the Dirichlet space is empty), and there P A x =
    beta mu x: the bound is attained.  Otherwise the count proves nothing
    and the result is None.
    """
    rows = 0 if gram.pairing is None else gram.pairing.shape[0]
    if mesh.num_elements <= rows:
        return None
    return gram.beta * (1.0 if degree == 0 else 1.0 / mesh.dim)
