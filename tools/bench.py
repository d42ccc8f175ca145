"""Run every BENCHMARK.json workload on seeds 1-5 and write one BENCH_<n>.json.

    python3 tools/bench.py BENCH_<n>.json

Each run is BENCHMARK.json's command with ``--workload W --seed s --seconds
<run_seconds> --trace 0``, in a fresh interpreter from the repository root,
one at a time, seed by seed. For each workload the file holds each end-to-end
metric's per-seed values with their median and interquartile range, the
attempted and failed operations of each run, and each run's ``env`` line
(BLAS threads, numpy version, cores). A run that exits non-zero stops here,
and no file is written.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3, 4, 5)


def parse(stdout):
    """(env, result) from one benchmark run's standard output."""
    lines = stdout.splitlines()
    env = next(json.loads(line[len("env "):]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def aggregate(seeds, runs):
    """One workload's summary of ``runs``, the (env, result) pair of each seed."""
    metrics = {}
    for name, first in runs[0][1]["metrics"].items():
        values = [result["metrics"][name]["value"] for _, result in runs]
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        metrics[name] = {"unit": first["unit"], "values": values, "median": statistics.median(values), "iqr": q3 - q1}
    return {
        "seeds": list(seeds),
        "metrics": metrics,
        "attempted": [result["attempted"] for _, result in runs],
        "failed": [result["failed"] for _, result in runs],
        "correct": [result["correct"] for _, result in runs],
        "env": [env for env, _ in runs],
    }


def main(out):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {name: [] for name in workloads}
    for seed in SEEDS:
        for name in workloads:
            argv = [*spec["command"], "--workload", name, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            print(f"bench: {name} seed {seed}", file=sys.stderr, flush=True)
            done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            runs[name].append(parse(done.stdout))
    report = {
        "command": spec["command"],
        "run_seconds": spec["run_seconds"],
        "trace": 0,
        "workloads": {name: aggregate(SEEDS, runs[name]) for name in workloads},
    }
    Path(out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
