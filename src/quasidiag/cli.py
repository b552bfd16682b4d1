"""Command line driver for the condition-number experiments.

Writes the experiment CSV to --out (or stdout), streaming rows as they
finish.  Exit status: 0 on success, 2 for configuration errors, 3 when an
iterative solver or eigenvalue estimate fails to converge.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, EigsNotConverged, SolverFailure
from .experiments import ExperimentConfig, csv_writer, run_experiment
from .spectral import EIGS_MAX_ITER, EIGS_TOL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasidiag",
        description=(
            "Condition numbers of quasi-diagonally preconditioned dual-norm "
            "Gram matrices across mesh refinement levels."
        ),
    )
    parser.add_argument("--dim", type=int, default=2, choices=(2, 3, 4))
    parser.add_argument("--degree", type=int, default=0, choices=(0, 1))
    parser.add_argument("--space", default="hm1", choices=("hm1", "tilde"))
    parser.add_argument("--refine", default="uniform", choices=("uniform", "adaptive"))
    parser.add_argument(
        "--levels", type=int, default=None, help="rows to produce (default per dim)"
    )
    parser.add_argument("--alpha", type=float, default=None)
    parser.add_argument("--beta", type=float, default=None)
    parser.add_argument("--theta", type=float, default=0.25)
    parser.add_argument(
        "--tol",
        type=float,
        default=EIGS_TOL,
        help=(
            "stop each eigenvalue estimate once the Ritz residual bound, "
            "relative to the Ritz value, is at most this at both ends of the "
            f"spectrum; an eigenvalue lies that close to each (default {EIGS_TOL})"
        ),
    )
    parser.add_argument(
        "--max-iter",
        dest="max_iter",
        type=int,
        default=EIGS_MAX_ITER,
        help=(
            "Lanczos steps (one A and one P apply each) allowed per estimate "
            f"before it fails with exit status 3 (default {EIGS_MAX_ITER})"
        ),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="CSV path (default stdout)")
    parser.add_argument(
        "--dump-matrices",
        dest="dump_matrices",
        default=None,
        metavar="DIR",
        help="also write per-level matrices in Matrix Market format",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = ExperimentConfig(
        dim=args.dim,
        degree=args.degree,
        space=args.space,
        refine=args.refine,
        levels=args.levels,
        alpha=args.alpha,
        beta=args.beta,
        theta=args.theta,
        tol=args.tol,
        max_iter=args.max_iter,
        seed=args.seed,
        dump_matrices=args.dump_matrices,
    ).resolved()
    try:
        config.validate()
    except ConfigError as exc:
        print(f"quasidiag: {exc}", file=sys.stderr)
        return 2

    stream = sys.stdout
    if args.out is not None:
        try:
            stream = open(args.out, "w", encoding="ascii")
        except OSError as exc:
            print(f"quasidiag: cannot open --out: {exc}", file=sys.stderr)
            return 2
    try:
        run_experiment(config, row_callback=csv_writer(stream))
    except (SolverFailure, EigsNotConverged) as exc:
        print(f"quasidiag: {exc}", file=sys.stderr)
        return 3
    finally:
        if stream is not sys.stdout:
            stream.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
