"""Run-to-run spread of the end-to-end metrics over ten seeds.

Usage, from the repository root:

    python3 hankelbench/spread.py WORKLOAD...

Runs ``run.py --trace 0`` with seeds 1 to 10 and the ``run_seconds`` of
BENCHMARK.json, once per seed and workload, one run at a time.  It prints
for each end-to-end metric its median over the runs and the distance
between the first and third quartile as a share of that median, next to
the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def main(workloads: list[str]) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in SEEDS:
            start = time.perf_counter()
            proc = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]),
                                    "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v[-1]:.6g}" for k, v in values.items())
                + f" attempted={result['attempted']} failed={result['failed']}"
                + f" correct={result['correct']}"
                + f" took={time.perf_counter() - start:.1f}s", flush=True)
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"{workload} {name}: median {med:.6g} spread "
                  f"{(q3 - q1) / med:.4f} bound {bounds[name]}", flush=True)
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
