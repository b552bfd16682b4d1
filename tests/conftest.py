from math import factorial

import hypothesis
import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import inv

from quasidiag import initial_mesh
from quasidiag.precond import Preconditioner
from quasidiag.spectral import EIGS_MAX_ITER, EIGS_TOL, extreme_eigs

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=50, derandomize=True
)
hypothesis.settings.register_profile(
    "thorough", deadline=None, max_examples=300, derandomize=True
)
hypothesis.settings.load_profile("default")

np.seterr(divide="raise", over="raise", invalid="raise")


def cayley_menger_measure(points):
    """Independent k-simplex measure from squared distances only."""
    points = np.asarray(points, dtype=float)
    k = points.shape[0] - 1
    m = points.shape[0]
    sq = np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=2)
    bordered = np.ones((m + 1, m + 1))
    bordered[0, 0] = 0.0
    bordered[1:, 1:] = sq
    det = np.linalg.det(bordered)
    coeff = ((-1.0) ** (k + 1)) / (2.0**k * factorial(k) ** 2)
    return np.sqrt(coeff * det)


def pencil_max_eig(
    weighted_mass, operator, tol=EIGS_TOL, max_iter=EIGS_MAX_ITER, seed=0
):
    """Largest generalized eigenvalue of L x = lambda A x.

    It equals 1 / lambda_min(L^{-1} A), the bottom end of one
    :func:`extreme_eigs` run preconditioned by L^{-1}.  L is block diagonal
    per element, so its sparse inverse keeps the pattern of L.
    """
    inverse = Preconditioner(inv(sp.csc_matrix(weighted_mass)))
    return 1.0 / extreme_eigs(operator, inverse, tol, max_iter, seed).lambda_min


def shape_gamma(mesh):
    """Shape regularity gamma = max over T of diam(T)^n / |T|."""
    return float((mesh.diameters**mesh.dim / mesh.volumes).max())


@pytest.fixture(scope="session")
def lshape2d():
    return initial_mesh(2)


@pytest.fixture(scope="session")
def lprism3d():
    return initial_mesh(3)


@pytest.fixture(scope="session")
def cube4d():
    return initial_mesh(4)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
