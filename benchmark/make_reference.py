"""Regenerate benchmark/reference.json, the table the benchmark checks against.

    python3 benchmark/make_reference.py

Sweep levels small enough for the dense generalized eigensolver get the
exact extreme eigenvalues and condition numbers from
``dense_condition_number``; larger levels would take the iterative
estimator's values at seed 0.  Mesh sizes come from one run of each
workload.  Takes about a minute.
"""

from __future__ import annotations

import json
import sys

import worker

DENSE_LIMIT = 4000  # largest system handed to the dense oracle


def sweep_reference(qd, params) -> dict:
    config = qd.ExperimentConfig(seed=0, **params).resolved()
    estimated = {row.level: row for row in qd.run_experiment(config)}
    mesh = qd.initial_mesh(config.dim)
    levels = {}
    for level in range(1, config.levels + 1):
        if level > 1:
            mesh = qd.uniform_refine(mesh)
        basis = qd.basis_set(mesh, config.degree)
        gram = qd.gram_operator(mesh, config.space, config.degree, config.beta, basis=basis)
        entry = {"nE": mesh.num_elements, "dofs": gram.dim}
        if gram.dim <= DENSE_LIMIT:
            quasi = qd.quasi_diagonal_preconditioner(
                mesh, config.space, config.degree, config.alpha, basis=basis
            )
            diag = qd.diagonal_preconditioner(mesh, config.degree, basis=basis)
            lmin, lmax, kappa = qd.dense_condition_number(gram, quasi)
            entry.update(lmin=lmin, lmax=lmax, condP=kappa, source="dense oracle")
            entry["condDiag"] = qd.dense_condition_number(gram, diag)[2]
        else:
            row = estimated[level]
            entry.update(
                lmin=row.lambda_min,
                lmax=row.lambda_max,
                condP=row.cond_quasidiag,
                condDiag=row.cond_diag,
                source="estimator, seed 0",
            )
        levels[str(level)] = entry
        print(f"  level {level}: {entry}", file=sys.stderr)
    return {"levels": levels}


def size_reference(records, keys) -> dict:
    return {
        str(r["level"]): {key: r[key] for key in keys if key in r} for r in records
    }


def main() -> int:
    qd = worker.import_package()
    workloads = {}
    for name, params in worker.SWEEPS.items():
        print(name, file=sys.stderr)
        workloads[name] = sweep_reference(qd, params)
    graded = worker.graded_pass(qd, 0, lambda level: None)
    workloads["graded2d-setup"] = {
        "volume": qd.initial_mesh(2).total_volume(),
        "levels": size_reference(graded, ("nE",)),
    }
    applied = worker.apply_pass(qd, 0, lambda level: None)
    workloads["apply2d-L8"] = {
        "levels": size_reference(applied, ("nE", "dofs", "interior_vertices"))
    }
    path = worker.HERE / "reference.json"
    path.write_text(json.dumps({"workloads": workloads}, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
