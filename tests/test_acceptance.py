"""End-to-end acceptance checks for the preconditioner study.

Each test prints a one-line PASS marker so a `pytest -s` run doubles as a
checklist.  The heavier runs are shared through module fixtures.
"""

import itertools
import time

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
from conftest import pencil_max_eig

from quasidiag.assembly import assemble_L, basis_set
from quasidiag.experiments import ExperimentConfig, run_experiment
from quasidiag.mesh import SimplicialMesh, initial_mesh
from quasidiag.precond import (
    build_incidence,
    diagonal_lambda_min,
    diagonal_preconditioner,
    quasi_diagonal_preconditioner,
)
from quasidiag.refine import (
    dorfler_mark,
    nvb_refine,
    singular_indicator,
    uniform_refine,
)
from quasidiag.spectral import (
    dense_action,
    dense_condition_number,
    extreme_eigs,
    gram_operator,
)

ALPHA = {2: 0.01, 3: 0.01, 4: 0.1}
BETA = 0.1


def boundedness_window(levels):
    """Trailing levels used for the flatness ratio.

    The very coarse levels are excluded: the first mesh in 3d and 4d has no
    interior vertices at all, which degenerates the operator, and criterion
    one itself only scores levels three to six.
    """
    return max(2, levels - 2)


@pytest.fixture(scope="module")
def uniform_2d_run():
    start = time.perf_counter()
    rows = run_experiment(ExperimentConfig(dim=2, levels=6))
    elapsed = time.perf_counter() - start
    return rows, elapsed


def test_criterion_1_uniform_boundedness(uniform_2d_run, capsys):
    rows, elapsed = uniform_2d_run
    kappas = np.array([r.cond_quasidiag for r in rows])
    window = kappas[2:]
    ratio = window.max() / window.min()
    assert ratio < 2.0, f"kappa ratio {ratio:.3f} over levels 3-6"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    with capsys.disabled():
        print(f"\nACCEPTANCE criterion 1: PASS "
              f"(ratio {ratio:.3f}, {elapsed:.1f}s)")


def test_criterion_2_diagonal_growth(uniform_2d_run, capsys):
    rows, _ = uniform_2d_run
    diag = np.array([r.cond_diag for r in rows])
    assert np.all(np.diff(diag[1:]) > 0.0), f"not monotone: {diag}"
    ratio = diag[5] / diag[2]
    assert ratio > 3.0, f"level-6/level-3 ratio {ratio:.2f}"
    with capsys.disabled():
        print(f"ACCEPTANCE criterion 2: PASS (growth ratio {ratio:.1f})")


def test_criterion_3_adaptive_robustness(capsys):
    mesh = initial_mesh(2)
    kappas = []
    for _ in range(20):
        marked = dorfler_mark(singular_indicator(mesh), theta=0.25)
        mesh = nvb_refine(mesh, marked)
        op = gram_operator(mesh, "hm1", 0, beta=BETA)
        P = quasi_diagonal_preconditioner(mesh, "hm1", 0)
        kappas.append(extreme_eigs(op, P, seed=0).kappa)
    tail = np.array(kappas[-10:])
    ratio = tail.max() / tail.min()
    assert ratio < 2.0, f"kappa ratio {ratio:.3f} over final 10 steps"
    grading = mesh.diameters.min() / mesh.diameters.max()
    assert grading < 1.0 / 32.0, f"grading {grading:.4f}"
    with capsys.disabled():
        print(f"ACCEPTANCE criterion 3: PASS "
              f"(ratio {ratio:.3f}, grading {grading:.4f}, "
              f"{mesh.num_elements} elements)")


def test_criterion_4_all_surrogates(uniform_2d_run, capsys):
    levels = {2: 6, 3: 4, 4: 3}
    rows_2d, elapsed_2d = uniform_2d_run
    total = elapsed_2d
    summary = []
    for dim, space, degree in itertools.product(
        (2, 3, 4), ("hm1", "tilde"), (0, 1)
    ):
        if dim == 2 and space == "hm1" and degree == 0:
            kappas = np.array([r.cond_quasidiag for r in rows_2d])
        else:
            cfg = ExperimentConfig(
                dim=dim,
                degree=degree,
                space=space,
                levels=levels[dim],
                alpha=ALPHA[dim],
            )
            start = time.perf_counter()
            rows = run_experiment(cfg)
            total += time.perf_counter() - start
            kappas = np.array([r.cond_quasidiag for r in rows])
        window = kappas[-boundedness_window(levels[dim]):]
        ratio = window.max() / window.min()
        summary.append((dim, space, degree, ratio))
        assert ratio < 2.0, (
            f"dim={dim} space={space} p={degree}: ratio {ratio:.3f}"
        )
    assert total < 600.0, f"took {total:.0f}s"
    worst = max(s[3] for s in summary)
    with capsys.disabled():
        print(f"ACCEPTANCE criterion 4: PASS "
              f"(12 configurations, worst ratio {worst:.3f}, {total:.0f}s)")


def oracle_suite_meshes():
    lshape = initial_mesh(2)
    return [
        lshape,
        nvb_refine(lshape, [0, 3, 7]),
        uniform_refine(lshape),
        initial_mesh(3),
        uniform_refine(initial_mesh(3)),
        initial_mesh(4),
    ]


def test_criterion_5_oracle_equivalence(capsys):
    checked = 0
    worst = 0.0
    for mesh in oracle_suite_meshes():
        assert mesh.num_elements <= 200
        for space, degree in itertools.product(("hm1", "tilde"), (0, 1)):
            op = gram_operator(mesh, space, degree, beta=BETA)
            P = quasi_diagonal_preconditioner(
                mesh, space, degree, alpha=ALPHA[mesh.dim]
            )
            report = extreme_eigs(op, P, seed=1)
            _, _, kappa = dense_condition_number(op, P)
            rel = abs(report.kappa - kappa) / kappa
            worst = max(worst, rel)
            assert rel < 0.01, (
                f"dim={mesh.dim} space={space} p={degree}: "
                f"{report.kappa:.6g} vs {kappa:.6g}"
            )
            checked += 1
    with capsys.disabled():
        print(f"ACCEPTANCE criterion 5: PASS "
              f"({checked} cases, worst rel err {worst:.2e})")


def test_diagonal_lambda_min_is_the_dense_bottom():
    # the closed form the diagonal column's estimate takes as its bottom end
    for mesh in oracle_suite_meshes():
        for space, degree in itertools.product(("hm1", "tilde"), (0, 1)):
            op = gram_operator(mesh, space, degree, beta=BETA)
            floor = diagonal_lambda_min(op, mesh, degree)
            lmin, _, _ = dense_condition_number(
                op, diagonal_preconditioner(mesh, degree)
            )
            assert floor == pytest.approx(lmin, rel=1e-12), (
                f"dim={mesh.dim} {mesh.num_elements} elements "
                f"space={space} p={degree}"
            )


def random_refined_meshes(count, seed=2026):
    rng = np.random.default_rng(seed)
    produced = []
    while len(produced) < count:
        dim = int(rng.choice([2, 2, 2, 3, 4]))
        mesh = initial_mesh(dim)
        if dim == 2:
            for _ in range(int(rng.integers(1, 4))):
                nmark = int(rng.integers(1, mesh.num_elements + 1))
                marks = rng.choice(mesh.num_elements, size=nmark,
                                   replace=False)
                mesh = nvb_refine(mesh, marks)
        elif rng.random() < 0.7:
            mesh = uniform_refine(mesh)
        perm = rng.permutation(mesh.num_elements)
        produced.append(
            SimplicialMesh(dim, mesh.vertices.copy(), mesh.elements[perm])
        )
    return produced


def test_criterion_6_incidence_identities(capsys):
    meshes = random_refined_meshes(50)
    for mesh in meshes:
        topo = mesh.facets
        I = build_incidence(mesh)
        weighted = I.T @ mesh.volumes
        want = np.where(topo.is_boundary, topo.measure, 0.0)
        assert np.abs(weighted - want).max() < 1e-12
        assert np.diff(I.tocsc().indptr).max() <= 2
    with capsys.disabled():
        print(f"ACCEPTANCE criterion 6: PASS ({len(meshes)} meshes)")


def spd_probe(dense, rng, label):
    n = dense.shape[0]
    assert np.linalg.eigvalsh(dense).min() > 0.0, f"{label} not pd"
    for _ in range(5):
        x, y = rng.standard_normal((2, n))
        a = float(x @ dense @ y)
        b = float(y @ dense @ x)
        scale = max(1.0, abs(a), abs(b))
        assert abs(a - b) <= 1e-11 * scale, f"{label} not symmetric"


def test_criterion_7_spd_suite(capsys):
    rng = np.random.default_rng(99)
    probed = 0
    meshes = [initial_mesh(2), nvb_refine(initial_mesh(2), [0, 5]),
              initial_mesh(3), initial_mesh(4)]
    for mesh in meshes:
        assert mesh.num_elements <= 200
        alpha = ALPHA[mesh.dim]
        for space, degree in itertools.product(("hm1", "tilde"), (0, 1)):
            P = quasi_diagonal_preconditioner(mesh, space, degree,
                                              alpha=alpha)
            spd_probe(P.to_dense(), rng,
                      f"P dim={mesh.dim} {space} p={degree}")
            probed += 1
        for space in ("hm1", "tilde"):
            op = gram_operator(mesh, space, 1, beta=BETA)
            spd_probe(dense_action(op), rng, f"A dim={mesh.dim} {space}")
            probed += 1
    with capsys.disabled():
        print(f"ACCEPTANCE criterion 7: PASS ({probed} probes)")


def brute_force_dorfler_cardinality(mu, theta):
    total = mu.sum()
    for k in range(len(mu) + 1):
        for subset in itertools.combinations(range(len(mu)), k):
            if mu[list(subset)].sum() >= theta * total:
                return k
    return len(mu)


def test_criterion_8_refinement_exactness(capsys):
    for dim in (2, 3, 4):
        mesh = initial_mesh(dim)
        fine = uniform_refine(mesh)
        kids = 2 ** dim
        assert fine.num_elements == kids * mesh.num_elements
        child_sum = fine.volumes.reshape(mesh.num_elements, kids).sum(axis=1)
        np.testing.assert_allclose(child_sum, mesh.volumes, rtol=1e-12)
    rng = np.random.default_rng(5)
    for trial in range(25):
        n = int(rng.integers(1, 13))
        mu = rng.random(n) * rng.choice([1.0, 100.0], size=n)
        theta = float(rng.uniform(0.05, 1.0))
        marked = dorfler_mark(mu, theta)
        assert mu[marked].sum() >= theta * mu.sum() - 1e-12
        assert len(marked) == brute_force_dorfler_cardinality(mu, theta)
    with capsys.disabled():
        print("ACCEPTANCE criterion 8: PASS (3 dims, 25 marking trials)")


def test_criterion_9_inverse_inequality(capsys):
    mesh = initial_mesh(2)
    tops = []
    for level in range(4):
        if level:
            mesh = uniform_refine(mesh)
        basis = basis_set(mesh, 0)
        op = gram_operator(mesh, "hm1", 0, beta=BETA, basis=basis)
        L = sp.csr_matrix(assemble_L(mesh, basis))
        tops.append(pencil_max_eig(L, op, seed=2))
    growth = [b / a for a, b in zip(tops[1:], tops[2:])]
    assert all(g < 1.10 for g in growth), f"growth {growth}"
    with capsys.disabled():
        print(f"ACCEPTANCE criterion 9: PASS "
              f"(top eig {tops[-1]:.4f}, max growth "
              f"{max(growth):.4f})")
