"""Workload process of the quasidiag benchmark.

Started by ``run.py`` in a fresh interpreter.  It imports quasidiag from the
checkout's ``src`` directory, builds the workload's initial mesh, prints one
``{"ready": ...}`` line (the end of set-up), runs passes of the workload until
its time is up, and prints one ``{"result": ...}`` line with the raw outputs
of every pass.  The parent process checks those outputs and derives the
metrics; this process only measures.

With ``--trace 1`` every pass is run twice with the same inputs, untraced
and traced, the first of the two alternating from pass to pass, so the
tracing overhead is measured on identical work.  Between passes it takes a
few set-up samples in fresh copies of itself (``--setup-only``).

Run by hand (from the checkout root):

    python3 benchmark/worker.py --workload graded2d-setup --seed 1 --seconds 5 \
        --trace 0 --spans .bench_out/spans.jsonl
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spans
import summary

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# uniform sweeps: keyword arguments of ExperimentConfig (seed added per pass)
SWEEPS = {
    "uniform2d-hm1-p0": dict(dim=2, space="hm1", degree=0, levels=5),
    "uniform4d-tilde-p1": dict(dim=4, space="tilde", degree=1, levels=2),
}
GRADED_STEPS = 40
GRADED_THETA = 0.25
APPLY_LEVEL = 8
APPLY_PAIRS = 4
WORKLOAD_DIMS = {
    **{name: params["dim"] for name, params in SWEEPS.items()},
    "graded2d-setup": 2,
    "apply2d-L8": 2,
}
# a pass of pass index k in a run with seed s uses sub-seed s * PASS_STRIDE + k
PASS_STRIDE = 1000
# set-up samples taken between passes, at evenly spaced marks of the run
IN_RUN_PROBES = 3


def import_package():
    """Import quasidiag from the checkout, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import quasidiag

    expected = (SRC / "quasidiag").resolve()
    if Path(quasidiag.__file__).resolve().parent != expected:
        raise ImportError(f"quasidiag came from {quasidiag.__file__}, not {expected}")
    return quasidiag


# ---------------------------------------------------------------------------
# one pass of each workload; ``mark(level)`` tags the spans that follow (a
# sweep's levels are tagged by the traced run_experiment itself)


def sweep_pass(qd, name, seed):
    levels = []
    last = [time.perf_counter()]

    def on_row(row):
        now = time.perf_counter()
        levels.append(
            {
                "level": row.level,
                "seconds": now - last[0],
                "nE": row.num_elements,
                "dofs": row.num_dofs,
                "lmin": row.lambda_min,
                "lmax": row.lambda_max,
                "condP": row.cond_quasidiag,
                "condDiag": row.cond_diag,
            }
        )
        last[0] = now

    qd.run_experiment(qd.ExperimentConfig(seed=seed, **SWEEPS[name]), row_callback=on_row)
    return levels


def graded_pass(qd, seed, mark):
    rng = np.random.default_rng(seed)
    levels = []
    last = time.perf_counter()
    mesh = qd.initial_mesh(2)
    for step in range(1, GRADED_STEPS + 1):
        mark(step)
        marked = qd.dorfler_mark(qd.singular_indicator(mesh), GRADED_THETA)
        mesh = qd.nvb_refine(mesh, marked)
        basis = qd.basis_set(mesh, 0)
        gram = qd.gram_operator(mesh, "hm1", 0, basis=basis)
        quasi = qd.quasi_diagonal_preconditioner(mesh, "hm1", 0, basis=basis)
        diag = qd.diagonal_preconditioner(mesh, 0, basis=basis)
        x = rng.standard_normal(gram.dim)
        outputs = (gram.apply(x), quasi.apply(x), diag.apply(x))
        now = time.perf_counter()
        levels.append(
            {
                "level": step,
                "seconds": now - last,
                "nE": mesh.num_elements,
                "volume": mesh.total_volume(),
                "grading": float(mesh.diameters.min() / mesh.diameters.max()),
                "finite": all(bool(np.isfinite(v).all()) for v in outputs),
            }
        )
        last = now
    return levels


def apply_pass(qd, seed, mark):
    rng = np.random.default_rng(seed)
    levels = []
    last = time.perf_counter()
    mark(1)
    mesh = qd.initial_mesh(2)
    for level in range(1, APPLY_LEVEL + 1):
        if level > 1:
            mark(level)
            mesh = qd.uniform_refine(mesh)
        if level == APPLY_LEVEL:
            break
        now = time.perf_counter()
        levels.append({"level": level, "seconds": now - last, "nE": mesh.num_elements})
        last = now
    basis = qd.basis_set(mesh, 0)
    gram = qd.gram_operator(mesh, "hm1", 0, basis=basis)
    quasi = qd.quasi_diagonal_preconditioner(mesh, "hm1", 0, basis=basis)
    diag = qd.diagonal_preconditioner(mesh, 0, basis=basis)
    defect = 0.0
    finite = True
    for _ in range(APPLY_PAIRS):
        x, y = rng.standard_normal((2, gram.dim))
        ax, ay = gram.apply(x), gram.apply(y)
        defect = max(
            defect, abs(x @ ay - y @ ax) / (np.linalg.norm(x) * np.linalg.norm(ay))
        )
        for v in (quasi.apply(x), quasi.apply(y), diag.apply(x), diag.apply(y)):
            finite = finite and bool(np.isfinite(v).all())
    levels.append(
        {
            "level": APPLY_LEVEL,
            "seconds": time.perf_counter() - last,
            "nE": mesh.num_elements,
            "dofs": gram.dim,
            # rows of the pairing: the size of the inner P1 solve, which must
            # be past the direct-solve limit
            "interior_vertices": int(gram.pairing.shape[0]),
            "symmetry_defect": float(defect),
            "finite": finite,
        }
    )
    return levels


def one_pass(qd, workload, seed, mark):
    if workload in SWEEPS:
        return sweep_pass(qd, workload, seed)
    if workload == "graded2d-setup":
        return graded_pass(qd, seed, mark)
    return apply_pass(qd, seed, mark)


def timed_pass(qd, workload, seed, mark):
    """(wall seconds, level records, error text or None) of one pass."""
    started = time.perf_counter()
    try:
        levels = one_pass(qd, workload, seed, mark)
        error = None
    except Exception:  # a failed pass is reported and counted, not fatal
        levels = []
        error = traceback.format_exc()
    return time.perf_counter() - started, levels, error


# ---------------------------------------------------------------------------


def traced_pass(qd, workload, seed, tracer):
    """timed_pass with the wrappers installed; the tracer keeps the spans."""
    tracer.reset()
    restore = spans.install(tracer, qd)
    root = tracer.open("bench.pass")
    try:
        return timed_pass(qd, workload, seed, lambda level: setattr(tracer, "level", level))
    finally:
        tracer.close(root)
        restore()


def probe_setup(argv) -> float:
    """Seconds until a fresh set-up-only copy of this process is ready."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, __file__, *argv, "--setup-only"], stdout=subprocess.PIPE, text=True
    )
    with proc.stdout:
        ready = proc.stdout.readline()
        seconds = time.perf_counter() - started
        proc.stdout.read()
    if proc.wait() != 0 or not ready.startswith('{"ready"'):
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return seconds


def run_passes(qd, workload, seed, seconds, trace, probe):
    """Passes until the next would end after ``seconds``; at least one.

    After a pass that crosses the next of the IN_RUN_PROBES evenly spaced
    marks, ``probe()`` takes one set-up sample, so that the set-up samples
    see the machine across the whole run.  Probe time is not charged to the
    run's seconds.  Returns (pass records, set-up samples, traced spans).
    """
    passes, probes, written = [], [], []
    tracer = spans.Tracer() if trace else None
    charged = 0.0  # seconds of passes so far
    last_cost = 0.0
    k = 0
    while k == 0 or charged + last_cost <= seconds:
        pass_started = time.perf_counter()
        sub_seed = seed * PASS_STRIDE + k
        if not trace:
            wall, levels, error = timed_pass(qd, workload, sub_seed, lambda level: None)
            record = {"sub_seed": sub_seed, "wall_s": wall, "levels": levels, "error": error}
        else:
            # the twin that runs first alternates, so that the overhead is
            # not confounded with the order of the two runs
            if k % 2 == 0:
                wall, levels, error = timed_pass(qd, workload, sub_seed, lambda level: None)
                traced_wall, traced_levels, traced_error = traced_pass(
                    qd, workload, sub_seed, tracer
                )
            else:
                traced_wall, traced_levels, traced_error = traced_pass(
                    qd, workload, sub_seed, tracer
                )
                wall, levels, error = timed_pass(qd, workload, sub_seed, lambda level: None)
            record = {
                "sub_seed": sub_seed,
                "untraced_wall_s": wall,
                "wall_s": traced_wall,
                "levels": traced_levels,
                "untraced_levels": levels,
                "error": error or traced_error,
                "layers": spans.aggregate(tracer.spans, tracer.counts, traced_wall),
                "span_seconds": {
                    name: summary.describe(values)
                    for name, values in spans.durations(tracer.spans).items()
                },
            }
            written.append((k, tracer.spans))
        passes.append(record)
        last_cost = time.perf_counter() - pass_started
        charged += last_cost
        k += 1
        mark = seconds * (len(probes) + 1) / (IN_RUN_PROBES + 1)
        if len(probes) < IN_RUN_PROBES and charged >= mark and charged + last_cost <= seconds:
            probes.append(probe())
    return passes, probes, written


def write_spans(path, written) -> None:
    """One JSON array per span, after a header line naming the fields."""
    with open(path, "w", encoding="ascii") as stream:
        stream.write(json.dumps(["pass", "id", "name", "start", "end", "parent", "level"]))
        stream.write("\n")
        for k, recorded in written:
            for index, (name, start, end, parent, level) in enumerate(recorded):
                stream.write(f'[{k},{index},"{name}",{start!r},{end!r},{parent},{level}]\n')


def versions(qd) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "quasidiag": qd.__version__,
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_DIMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", required=True, help="JSONL file for the spans of a traced run")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    qd = import_package()
    qd.initial_mesh(WORKLOAD_DIMS[args.workload])
    print(json.dumps({"ready": time.perf_counter()}), flush=True)
    if args.setup_only:
        return 0
    passes, probes, written = run_passes(
        qd, args.workload, args.seed, args.seconds, args.trace, lambda: probe_setup(argv)
    )
    if args.trace:
        write_spans(args.spans, written)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "passes": passes,
        "setup_probes_s": probes,
        "peak_rss_mb": peak_kib / 1024.0,
        "versions": versions(qd),
    }
    print(json.dumps({"result": result}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
