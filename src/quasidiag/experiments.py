"""Experiment driver: condition numbers across refinement levels, as CSV.

One experiment fixes dimension, polynomial degree, dual-norm variant and
refinement style, then loops: assemble the Gram operator, estimate the
condition numbers of the quasi-diagonal and of the diagonally scaled
system, record a row, refine.  Rows can be streamed to disk as they are
produced so an aborted run leaves a usable partial file.
"""

from __future__ import annotations

import math
import numbers
import os
import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.io import mmwrite

from .assembly import assemble_L, assemble_M, assemble_R, basis_set
from .errors import ConfigError, EmptySpace
from .mesh import SimplicialMesh, initial_mesh
from .precond import (
    build_C,
    build_D,
    build_Dp,
    build_incidence,
    diagonal_lambda_min,
    diagonal_preconditioner,
    quasi_diagonal_preconditioner,
)
from .refine import adaptive_refine, uniform_refine
from .spectral import EIGS_MAX_ITER, EIGS_TOL, extreme_eigs, gram_operator

REFINE_MODES = ("uniform", "adaptive")
CSV_HEADER = "level,nE,dofs,condDiag,condP,lmin,lmax,seconds"

_DEFAULT_LEVELS = {
    (2, "uniform"): 7,
    (2, "adaptive"): 25,
    (3, "uniform"): 4,
    (4, "uniform"): 3,
}
_DEFAULT_ALPHA = {2: 0.01, 3: 0.01, 4: 0.1}
_DEFAULT_BETA = 0.1


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one condition-number experiment.

    ``levels``, ``alpha`` and ``beta`` may be left as None to receive the
    per-dimension defaults via :meth:`resolved`.
    """

    dim: int = 2
    degree: int = 0
    space: str = "hm1"
    refine: str = "uniform"
    levels: int | None = None
    alpha: float | None = None
    beta: float | None = None
    theta: float = 0.25
    tol: float = EIGS_TOL
    max_iter: int = EIGS_MAX_ITER
    seed: int = 0
    dump_matrices: str | None = None

    def resolved(self) -> "ExperimentConfig":
        """Copy with all None fields replaced by the shipped defaults."""
        levels = self.levels
        if levels is None:
            levels = _DEFAULT_LEVELS.get((self.dim, self.refine), 3)
        alpha = self.alpha if self.alpha is not None else _DEFAULT_ALPHA.get(self.dim)
        beta = self.beta if self.beta is not None else _DEFAULT_BETA
        return replace(self, levels=levels, alpha=alpha, beta=beta)

    def validate(self) -> None:
        if self.dim not in (2, 3, 4):
            raise ConfigError(f"dim must be 2, 3 or 4, got {self.dim}")
        if self.degree not in (0, 1):
            raise ConfigError(f"degree must be 0 or 1, got {self.degree}")
        if self.space not in ("hm1", "tilde"):
            raise ConfigError(f"space must be 'hm1' or 'tilde', got {self.space!r}")
        if self.refine not in REFINE_MODES:
            raise ConfigError(f"refine must be one of {REFINE_MODES}, got {self.refine!r}")
        if self.refine == "adaptive" and self.dim != 2:
            raise ConfigError("adaptive refinement is only available in 2D")
        for name in ("levels", "max_iter"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not 0.0 < self.theta <= 1.0:
            raise ConfigError(f"theta must lie in (0, 1], got {self.theta}")
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if value is None or not 0.0 < value < math.inf:
                raise ConfigError(f"{name} must be finite and positive, got {value}")
        # a relative Ritz bound of 1 or more allows any eigenvalue in (0, 2 theta]
        if not 0.0 < self.tol < 1.0:
            raise ConfigError(f"tol must lie in (0, 1), got {self.tol}")


@dataclass(frozen=True)
class ExperimentRow:
    """One refinement level's worth of results."""

    level: int
    num_elements: int
    num_dofs: int
    cond_diag: float
    cond_quasidiag: float
    lambda_min: float
    lambda_max: float
    seconds: float


def format_row(row: ExperimentRow) -> str:
    """CSV line for one row; floats use repr for exact round-trips."""
    return (
        f"{row.level},{row.num_elements},{row.num_dofs},"
        f"{row.cond_diag!r},{row.cond_quasidiag!r},"
        f"{row.lambda_min!r},{row.lambda_max!r},{row.seconds!r}"
    )


def csv_writer(stream):
    """Write the header to ``stream``; return a function writing one row.

    Every line is flushed as it is written, so a run that stops early
    leaves the header and the rows finished so far.
    """
    stream.write(CSV_HEADER + "\n")
    stream.flush()

    def write_row(row: ExperimentRow) -> None:
        stream.write(format_row(row) + "\n")
        stream.flush()

    return write_row


def write_csv(rows, path) -> None:
    """Write header plus one line per row, newline-terminated."""
    with open(path, "w", encoding="ascii", newline="\n") as stream:
        write_row = csv_writer(stream)
        for row in rows:
            write_row(row)


def read_csv(path) -> list[ExperimentRow]:
    """Parse a file produced by :func:`write_csv` back into rows."""
    rows = []
    with open(path, "r", encoding="ascii") as stream:
        header = stream.readline().strip()
        if header != CSV_HEADER:
            raise ConfigError(f"unrecognized experiment CSV header: {header!r}")
        for line in stream:
            parts = line.strip().split(",")
            if len(parts) != 8:
                raise ConfigError(f"malformed experiment CSV line: {line!r}")
            rows.append(
                ExperimentRow(
                    int(parts[0]),
                    int(parts[1]),
                    int(parts[2]),
                    *(float(p) for p in parts[3:]),
                )
            )
    return rows


def _dump_level(config: ExperimentConfig, mesh: SimplicialMesh, basis, level: int):
    directory = config.dump_matrices
    os.makedirs(directory, exist_ok=True)

    def target(name):
        return os.path.join(directory, f"level{level:02d}_{name}.mtx")

    boundary = config.space == "hm1"
    mmwrite(target("I"), build_incidence(mesh, include_boundary_facets=boundary))
    mmwrite(target("D"), sp.diags(build_D(mesh, include_boundary_facets=boundary)))
    mmwrite(target("C"), sp.diags(build_C(mesh)))
    if basis.degree == 1:
        mmwrite(target("Dp"), sp.diags(build_Dp(mesh, basis)))
    bc = "dirichlet" if config.space == "hm1" else "free"
    mmwrite(target("L"), assemble_L(mesh, basis))
    try:
        mmwrite(target("R"), assemble_R(mesh, bc))
        mmwrite(target("M"), assemble_M(mesh, basis, bc))
    except EmptySpace:
        pass


def run_experiment(config: ExperimentConfig, clock=None, row_callback=None):
    """Produce one :class:`ExperimentRow` per level; see the module docstring.

    ``clock`` replaces time.perf_counter for reproducible timing columns;
    ``row_callback`` receives each row as soon as it is complete.
    """
    config = config.resolved()
    config.validate()
    if clock is None:
        clock = time.perf_counter

    mesh = initial_mesh(config.dim)
    rows = []
    for level in range(1, config.levels + 1):
        started = clock()
        basis = basis_set(mesh, config.degree)
        gram = gram_operator(mesh, config.space, config.degree, config.beta, basis=basis)
        quasi = quasi_diagonal_preconditioner(
            mesh, config.space, config.degree, config.alpha, basis=basis
        )
        report = extreme_eigs(
            gram,
            quasi,
            tol=config.tol,
            max_iter=config.max_iter,
            seed=np.random.SeedSequence(config.seed, spawn_key=(level, 0)),
        )
        diag = diagonal_preconditioner(mesh, config.degree, basis=basis)
        cond_diag = extreme_eigs(
            gram,
            diag,
            tol=config.tol,
            max_iter=config.max_iter,
            seed=np.random.SeedSequence(config.seed, spawn_key=(level, 1)),
            lambda_min=diagonal_lambda_min(gram, mesh, config.degree),
        ).kappa
        if config.dump_matrices:
            _dump_level(config, mesh, basis, level)
        row = ExperimentRow(
            level,
            mesh.num_elements,
            gram.dim,
            cond_diag,
            report.kappa,
            report.lambda_min,
            report.lambda_max,
            clock() - started,
        )
        rows.append(row)
        if row_callback is not None:
            row_callback(row)
        if level < config.levels:
            if config.refine == "uniform":
                mesh = uniform_refine(mesh)
            else:
                mesh = adaptive_refine(mesh, config.theta)
    return rows
