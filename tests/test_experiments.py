"""Experiment driver, CSV output, and the command line front end."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.io as sio

from quasidiag.assembly import basis_set
from quasidiag.cli import main
from quasidiag.errors import ConfigError, EigsNotConverged
from quasidiag.experiments import (
    CSV_HEADER,
    ExperimentConfig,
    ExperimentRow,
    format_row,
    read_csv,
    run_experiment,
    write_csv,
)
from quasidiag.mesh import initial_mesh
from quasidiag.precond import build_incidence, quasi_diagonal_preconditioner
from quasidiag.refine import uniform_refine
from quasidiag.spectral import dense_condition_number, gram_operator

SRC = Path(__file__).resolve().parents[1] / "src"


class CountingClock:
    def __init__(self):
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return float(self.calls)


# ---------------------------------------------------------------------------
# configuration


def test_config_defaults_resolution():
    cfg = ExperimentConfig().resolved()
    assert cfg.levels == 7
    assert cfg.alpha == pytest.approx(0.01)
    assert cfg.beta == pytest.approx(0.1)
    cfg4 = ExperimentConfig(dim=4).resolved()
    assert cfg4.levels == 3
    assert cfg4.alpha == pytest.approx(0.1)
    cfg_a = ExperimentConfig(refine="adaptive").resolved()
    assert cfg_a.levels == 25


@pytest.mark.parametrize(
    "kwargs",
    [
        {"dim": 5},
        {"dim": 3, "refine": "adaptive"},
        {"theta": 0.0},
        {"theta": 1.5},
        {"levels": 0},
        {"degree": 2},
        {"space": "l2"},
        {"alpha": -0.5},
        {"tol": 0.0},
        {"beta": float("nan")},
        {"beta": float("inf")},
        {"alpha": float("nan"), "space": "tilde"},
        {"alpha": float("inf"), "space": "tilde"},
        {"tol": float("nan")},
        {"tol": float("inf")},
        {"tol": 1.0},
        {"tol": 2.0},
        {"levels": 2.0},
        {"max_iter": 2.5},
        {"seed": -1},
        {"seed": 1.5},
    ],
)
def test_config_rejects(kwargs):
    with pytest.raises(ConfigError):
        ExperimentConfig(**kwargs).resolved().validate()


# ---------------------------------------------------------------------------
# experiment runs


def test_tiny_run_2d():
    cfg = ExperimentConfig(dim=2, levels=2)
    rows = run_experiment(cfg)
    assert [r.level for r in rows] == [1, 2]
    assert [r.num_elements for r in rows] == [12, 48]
    assert all(r.num_dofs == r.num_elements for r in rows)
    assert all(r.cond_quasidiag >= 1.0 for r in rows)
    assert all(r.lambda_min > 0.0 for r in rows)
    assert all(r.lambda_max >= r.lambda_min for r in rows)


def test_tiny_run_4d():
    cfg = ExperimentConfig(dim=4, levels=2)
    rows = run_experiment(cfg)
    assert [r.num_elements for r in rows] == [24, 384]
    # equal volumes and an empty essential space make the first level exact
    assert rows[0].cond_diag == pytest.approx(1.0, rel=1e-9)


def test_adaptive_growth():
    cfg = ExperimentConfig(dim=2, refine="adaptive", levels=5)
    rows = run_experiment(cfg)
    counts = [r.num_elements for r in rows]
    assert counts[0] == 12
    assert all(b > a for a, b in zip(counts, counts[1:]))


def test_degree_one_dof_count():
    cfg = ExperimentConfig(dim=2, degree=1, levels=1)
    rows = run_experiment(cfg)
    assert rows[0].num_dofs == 12 * 3


def test_row_callback_streams():
    seen = []
    cfg = ExperimentConfig(dim=2, levels=2)
    run_experiment(cfg, row_callback=seen.append)
    assert [r.level for r in seen] == [1, 2]


# ---------------------------------------------------------------------------
# csv round trip


def test_csv_header_and_shape(tmp_path):
    cfg = ExperimentConfig(dim=2, levels=2)
    rows = run_experiment(cfg)
    out = tmp_path / "rows.csv"
    write_csv(rows, out)
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert text.endswith("\n")


def test_csv_roundtrip_exact(tmp_path):
    cfg = ExperimentConfig(dim=2, levels=2)
    rows = run_experiment(cfg)
    out = tmp_path / "rows.csv"
    write_csv(rows, out)
    back = read_csv(out)
    assert back == list(rows)


def test_csv_rejects_bad_header(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("level,nE\n1,12\n")
    with pytest.raises(ConfigError):
        read_csv(bad)


def test_format_row_repr_floats():
    rows = run_experiment(ExperimentConfig(dim=2, levels=1))
    line = format_row(rows[0])
    fields = line.split(",")
    assert fields[0] == "1"
    assert float(fields[3]) == rows[0].cond_diag
    assert fields[5] == repr(rows[0].lambda_min)


def test_known_hard_start_reaches_the_dense_lambda_max():
    # from sub-seed 13002 a stopping rule on the change of the Rayleigh
    # quotient ended 2.7 % low at level 2 (1.5304 against 1.5733)
    cfg = ExperimentConfig(dim=4, space="tilde", degree=1, levels=2, seed=13002)
    row = run_experiment(cfg)[-1]
    mesh = uniform_refine(initial_mesh(4))
    basis = basis_set(mesh, 1)
    op = gram_operator(mesh, "tilde", 1, beta=0.1, basis=basis)
    P = quasi_diagonal_preconditioner(mesh, "tilde", 1, alpha=0.1, basis=basis)
    lmin, lmax, kappa = dense_condition_number(op, P)
    assert row.lambda_max == pytest.approx(lmax, rel=1e-2)
    assert row.lambda_min == pytest.approx(lmin, rel=1e-2)
    assert row.cond_quasidiag == pytest.approx(kappa, rel=1e-2)


def test_determinism_with_injected_clock():
    cfg = ExperimentConfig(dim=2, levels=3, seed=7)
    a = run_experiment(cfg, clock=CountingClock())
    b = run_experiment(cfg, clock=CountingClock())
    assert a == b


def test_determinism_modulo_timing():
    cfg = ExperimentConfig(dim=2, levels=2, seed=11)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    for ra, rb in zip(a, b):
        assert ra.cond_quasidiag == rb.cond_quasidiag
        assert ra.lambda_min == rb.lambda_min
        assert ra.lambda_max == rb.lambda_max


# ---------------------------------------------------------------------------
# command line


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "quasidiag.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_cli_writes_file(tmp_path):
    out = tmp_path / "run.csv"
    proc = run_cli("--dim", "2", "--levels", "2", "--out", str(out))
    assert proc.returncode == 0
    rows = read_csv(out)
    assert [r.num_elements for r in rows] == [12, 48]


def test_cli_stdout_csv():
    proc = run_cli("--dim", "2", "--levels", "1")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("1,12,12,")


def test_cli_config_error_exit():
    proc = run_cli("--dim", "3", "--refine", "adaptive")
    assert proc.returncode == 2
    assert proc.stderr != ""


def test_cli_nan_beta_is_a_config_error():
    proc = run_cli("--beta", "nan")
    assert proc.returncode == 2
    assert proc.stderr.startswith("quasidiag: ")
    assert "Traceback" not in proc.stderr


def test_cli_negative_seed_is_a_config_error():
    proc = run_cli("--seed", "-1", "--levels", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("quasidiag: ")
    assert "Traceback" not in proc.stderr


def test_cli_unopenable_out_is_a_config_error(tmp_path):
    proc = run_cli("--dim", "2", "--levels", "1",
                   "--out", str(tmp_path / "no" / "such" / "x.csv"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("quasidiag: ")
    assert "Traceback" not in proc.stderr


def test_cli_solver_failure_exit():
    proc = run_cli("--dim", "2", "--levels", "2", "--max-iter", "1",
                   "--tol", "1e-14")
    assert proc.returncode == 3
    assert proc.stderr != ""


def test_main_in_process(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code = main(["--dim", "2", "--levels", "1", "--out", str(out)])
    assert code == 0
    assert read_csv(out)[0].num_elements == 12


def test_main_rejects_bad_flag_combo(capsys):
    code = main(["--dim", "4", "--refine", "adaptive"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err != ""


def test_dump_matrices(tmp_path):
    dump = tmp_path / "mats"
    code = main([
        "--dim", "2", "--levels", "1", "--out", str(tmp_path / "d.csv"),
        "--dump-matrices", str(dump),
    ])
    assert code == 0
    names = sorted(p.name for p in dump.iterdir())
    assert "level01_I.mtx" in names
    assert "level01_L.mtx" in names
    assert "level01_R.mtx" in names
    got = sio.mmread(dump / "level01_I.mtx").toarray()
    want = build_incidence(initial_mesh(2)).toarray()
    np.testing.assert_allclose(got, want, rtol=1e-15)


def test_dump_matrices_empty_dirichlet(tmp_path):
    # the coarse 3d mesh has no interior vertices, so R and M are skipped
    dump = tmp_path / "mats3"
    code = main([
        "--dim", "3", "--levels", "1", "--out", str(tmp_path / "d.csv"),
        "--dump-matrices", str(dump),
    ])
    assert code == 0
    names = sorted(p.name for p in dump.iterdir())
    assert "level01_I.mtx" in names
    assert "level01_R.mtx" not in names


# ---------------------------------------------------------------------------
# sweep script


def load_sweep_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_all_experiments.py"
    spec = importlib.util.spec_from_file_location("run_all_experiments", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_keeps_partial_table_on_failure(tmp_path, monkeypatch):
    script = load_sweep_script()
    row = ExperimentRow(1, 12, 12, 40.0, 2.5, 0.5, 1.25, 0.01)

    def one_row_then_stall(config, row_callback=None):
        row_callback(row)
        raise EigsNotConverged("stalled")

    monkeypatch.setattr(script, "run_experiment", one_row_then_stall)
    code = script.main([
        "--out-dir", str(tmp_path), "--only", "dim2_hm1_p0_uniform", "--quiet",
    ])
    assert code == 3
    assert read_csv(tmp_path / "dim2_hm1_p0_uniform.csv") == [row]


def test_sweep_config_error_writes_nothing(tmp_path, capsys):
    script = load_sweep_script()
    out_dir = tmp_path / "results"
    for option, value in (("--levels", "0"), ("--seed", "-1")):
        code = script.main([
            "--out-dir", str(out_dir), "--only", "dim2_hm1_p0_uniform",
            option, value, "--quiet",
        ])
        assert code == 2
        assert option[2:] in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))
