"""Run the benchmark over workloads and seeds and print every metric.

    python3 benchmark/report.py                      # every workload, seed 1
    python3 benchmark/report.py --seeds 11-20        # ten seeds, with spreads
    python3 benchmark/report.py --workloads apply2d-L8 --trace 1

Each (workload, seed) is one ``run.py`` invocation with the run length from
BENCHMARK.json.  For every metric the table gives the median over seeds,
the quartiles and the spread (Q3 - Q1) / median; an end-to-end metric whose
spread is above a third of its bound is flagged.  A JSON summary is written
to ``.bench_out/report-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import summary
from run import HERE, OUT, ROOT


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    key = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in declared[key]}

    report = {}
    status = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(declared["run_seconds"]),
                "--trace", str(args.trace),
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(done.stderr, file=sys.stderr)
                print(f"{workload} seed {seed}: exit {done.returncode}")
                status = 1
                continue
            final = json.loads(lines[-1])
            runs.append({"seed": seed, **final})
            print(
                f"{workload} seed {seed}: correct {final['correct']} "
                f"failed {final['failed']}/{final['attempted']}",
                flush=True,
            )
            status |= not final["correct"]
        report[workload] = runs
        if not runs:
            continue
        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':44s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} {'spread':>8s}  unit")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = summary.spread(values) if med else float("nan")
            else:
                q1 = q3 = med
                spread = float("nan")
            flag = ""
            if bounds.get(name) is not None and spread > bounds[name] / 3:
                flag = f"  above a third of bound {bounds[name]}"
            print(f"  {name:44s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}  {unit}{flag}")
        print(flush=True)
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())
