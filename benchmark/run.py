"""Benchmark of the quasidiag condition-number study.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One fresh workload process
(``worker.py``) runs passes of the workload for about S seconds.  Set-up time
is sampled in fresh interpreters before, during and after that run.  This
process checks every output against ``reference.json`` and prints, as its
last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  The full record (machine, per-pass data, metrics) is written
to ``.bench_out/`` in the checkout.  See ``benchmark/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path

import summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 7  # one before the run, the workload's own, the rest during and after
DEADLINE_S = 170.0
ORACLE_RTOL = 0.01  # the acceptance suite's dense-oracle gate
SYMMETRY_TOL = 1e-12  # the inner P1 solve's tolerance (spectral.INNER_CG_TOL)
GRADING_LIMIT = 1.0 / 32.0
VOLUME_RTOL = 1e-12
COVERAGE_TOL = 0.05  # package-layer self times cover the traced wall to 5 %
# work that no wrapper catches inside run_experiment lands in the experiments
# layer's self time; more than this share of the traced wall means lost spans
EXPERIMENTS_SELF_LIMIT = 0.02


def blas_threads() -> int:
    return len(os.sched_getaffinity(0))


def machine() -> dict:
    """nproc, CPU model and caches of the machine this run measured on."""
    info = {"nproc": blas_threads(), "cpu": platform.processor() or platform.machine()}
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as stream:
            for line in stream:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            fields = [(index / key).read_text().strip() for key in ("level", "type", "size")]
        except OSError:
            continue
        caches.append("L{} {} {}".format(*fields))
    info["caches"] = caches
    info["blas_thread_cap"] = blas_threads()
    return info


def child_env() -> dict:
    env = dict(os.environ)
    cap = str(blas_threads())
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = cap
    env.pop("PYTHONPATH", None)
    return env


def spawn(args, deadline):
    """Run worker.py; return (seconds until its ready line, last JSON line)."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
    )
    killer = threading.Timer(max(deadline - time.perf_counter(), 1.0), proc.kill)
    killer.start()
    try:
        ready_line = proc.stdout.readline()
        setup = time.perf_counter() - started
        rest = proc.stdout.read()
        proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not ready_line.startswith('{"ready"'):
        raise RuntimeError(f"worker {args} exited with {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup, json.loads(lines[-1]) if lines else {}


# ---------------------------------------------------------------------------
# output checks: one attempt per level (or adaptive step) per pass


def _close(value, expected, rtol):
    return abs(value - expected) <= rtol * abs(expected)


def check_level(level, reference) -> list:
    """Problems found in one level record; empty when it is correct."""
    ref = reference["levels"].get(str(level["level"]))
    if ref is None:
        return [f"level {level['level']} has no reference"]
    problems = []
    for key in ("nE", "dofs", "interior_vertices"):
        if key in ref and level.get(key) != ref[key]:
            problems.append(f"{key} {level.get(key)} != {ref[key]}")
    for key in ("lmin", "lmax", "condP", "condDiag"):
        if key in ref and not _close(level[key], ref[key], ORACLE_RTOL):
            problems.append(f"{key} {level[key]:.6g} vs reference {ref[key]:.6g}")
    if "volume" in level and not _close(level["volume"], reference["volume"], VOLUME_RTOL):
        problems.append(f"volume {level['volume']!r} != {reference['volume']!r}")
    if "symmetry_defect" in level and not level["symmetry_defect"] <= SYMMETRY_TOL:
        problems.append(f"symmetry defect {level['symmetry_defect']:.3e}")
    if level.get("finite") is False:
        problems.append("non-finite operator output")
    last = str(level["level"]) == max(reference["levels"], key=int)
    if "grading" in level and last and not level["grading"] < GRADING_LIMIT:
        problems.append(f"grading {level['grading']:.4g} not below 1/32")
    return problems


def check_pass(record, reference):
    """(attempted, failed, problems) of one pass; missing levels fail."""
    expected = len(reference["levels"])
    groups = [record["levels"]] + (
        [record["untraced_levels"]] if "untraced_levels" in record else []
    )
    attempted = failed = 0
    problems = []
    for levels in groups:
        attempted += expected
        failed += expected - len(levels)
        for level in levels:
            found = check_level(level, reference)
            failed += bool(found)
            problems += [f"pass {record['sub_seed']} level {level['level']}: {p}" for p in found]
    if record["error"]:
        problems.append(f"pass {record['sub_seed']} raised:\n{record['error']}")
    layers = record.get("layers")
    if layers is not None:
        attempted += 1
        coverage = layers["trace.layer_coverage"]
        unattributed = layers["layer.experiments.self_s"] / layers["trace.wall_s"]
        if abs(1.0 - coverage) > COVERAGE_TOL or unattributed > EXPERIMENTS_SELF_LIMIT:
            failed += 1
            problems.append(
                f"pass {record['sub_seed']}: layer self times cover {coverage:.3f} "
                f"of the traced wall, experiments self time {unattributed:.3f} of it"
            )
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# metrics


def end_to_end(passes, setup_samples, peak_rss_mb) -> dict:
    return {
        "wall_s": (summary.median(p["wall_s"] for p in passes), "s"),
        "setup_s": (summary.median(setup_samples), "s"),
        "finest_level_s": (summary.median(p["levels"][-1]["seconds"] for p in passes), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(passes, units) -> dict:
    out = {}
    for name, unit in units.items():
        if name == "trace.overhead_share":
            value = summary.median(p["wall_s"] / p["untraced_wall_s"] - 1.0 for p in passes)
        elif name == "trace.untraced_wall_s":
            value = summary.median(p["untraced_wall_s"] for p in passes)
        else:
            value = summary.median(p["layers"][name] for p in passes)
        out[name] = (value, unit)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    if args.seed < 0 or args.seconds < 1:
        print("run.py: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2

    if not (ROOT / "src" / "quasidiag" / "__init__.py").is_file():
        print(f"run.py: no quasidiag sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    if args.workload not in reference["workloads"]:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    reference = reference["workloads"][args.workload]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[key]}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    worker_args = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spans", str(OUT / f"spans-{stem}.jsonl"),
    ]

    def probe_setup():
        return spawn(worker_args + ["--setup-only"], deadline)[0]

    # set-up samples spread over the run, so that they see the machine at
    # the moments the workload does: before, the workload's own, between
    # passes (taken by the workload process), and after
    setup_samples = [probe_setup()]
    setup, message = spawn(worker_args, deadline)
    result = message["result"]
    setup_samples += [setup] + result["setup_probes_s"]
    setup_samples += [probe_setup() for _ in range(SETUP_SAMPLES - len(setup_samples))]
    passes = result["passes"]

    attempted = failed = 0
    problems = []
    for record in passes:
        a, f, p = check_pass(record, reference)
        attempted, failed, problems = attempted + a, failed + f, problems + p
    complete = [p for p in passes if not p["error"]]
    if not complete:
        print("\n".join(problems), file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(complete, units)
    else:
        metrics = end_to_end(complete, setup_samples, result["peak_rss_mb"])
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {**machine(), **result["versions"]},
        "setup_samples_s": setup_samples,
        "pass_wall_s": summary.describe([p["wall_s"] for p in passes]),
        "passes": passes,
        "problems": problems,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1))

    for line in problems:
        print(f"CHECK FAILED {line}", file=sys.stderr)
    print(f"machine {json.dumps(record['machine'])}")
    print(
        f"{args.workload} seed {args.seed}: {len(passes)} passes, "
        f"failed {failed}/{attempted} = {failed / attempted:.3f}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    final = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
