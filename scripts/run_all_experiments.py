#!/usr/bin/env python3
"""Produce the full set of condition number tables.

Runs every shipped configuration (three dimensions, both dual-norm
variants, both field degrees, plus the adaptive runs in 2d) and writes
one CSV per configuration into the output directory, a row at a time.  A
solver or eigenvalue failure ends that table early, keeping the rows written
so far; the sweep goes on with the next configuration and exits with
status 3.  An invalid configuration (say ``--levels 0``) exits with status 2
before any file is written.  With default level caps the whole sweep takes
about 30 seconds on two cores, most of it in the four 2d level-7 rows.
"""

import argparse
import dataclasses
import itertools
import sys
import time
from pathlib import Path

from quasidiag.errors import ConfigError, EigsNotConverged, SolverFailure
from quasidiag.experiments import ExperimentConfig, csv_writer, format_row, run_experiment


def configurations():
    for dim, space, degree in itertools.product((2, 3, 4), ("hm1", "tilde"), (0, 1)):
        yield ExperimentConfig(dim=dim, space=space, degree=degree)
    for space, degree in itertools.product(("hm1", "tilde"), (0, 1)):
        yield ExperimentConfig(dim=2, space=space, degree=degree, refine="adaptive")


def tag(cfg):
    return f"dim{cfg.dim}_{cfg.space}_p{cfg.degree}_{cfg.refine}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results",
                        help="directory for the CSV files (default: results)")
    parser.add_argument("--only", default=None,
                        help="run only configurations whose tag contains this substring")
    parser.add_argument("--levels", type=int, default=None,
                        help="override the per-configuration level cap")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    chosen = []
    for cfg in configurations():
        if args.only is None or args.only in tag(cfg):
            if args.levels is not None:
                cfg = dataclasses.replace(cfg, levels=args.levels)
            chosen.append(dataclasses.replace(cfg, seed=args.seed).resolved())
    if not chosen:
        print(f"no configuration matches --only {args.only!r}", file=sys.stderr)
        return 2
    for cfg in chosen:
        try:
            cfg.validate()
        except ConfigError as exc:
            print(f"{tag(cfg)}: {exc}", file=sys.stderr)
            return 2

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    grand_start = time.perf_counter()
    failed = []
    for cfg in chosen:
        name = tag(cfg)
        if not args.quiet:
            print(f"== {name}")

        with open(out_dir / f"{name}.csv", "w", encoding="ascii", newline="\n") as stream:
            write_row = csv_writer(stream)

            def emit(row):
                write_row(row)
                if not args.quiet:
                    print("   " + format_row(row))

            try:
                run_experiment(cfg, row_callback=emit)
            except (SolverFailure, EigsNotConverged) as exc:
                print(f"{name}: {exc}; the table keeps the rows before it",
                      file=sys.stderr)
                failed.append(name)
    elapsed = time.perf_counter() - grand_start
    if not args.quiet:
        print(f"wrote {len(chosen)} tables to {out_dir} in {elapsed:.1f}s")
    if failed:
        print(f"{len(failed)} table(s) stopped early: {', '.join(failed)}",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
