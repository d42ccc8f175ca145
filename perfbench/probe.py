"""Time bakekit's set-up once in a fresh interpreter and print it as JSON.

Set-up is what a run pays before its first step: importing bakekit (and
numpy with it), building the workload's dataset and initialising the model.
Interpreter start-up is not counted. bakekit is imported from the
checkout's ``src/``.

Usage: python3 perfbench/probe.py --workload NAME --seed N [--tiny]
"""

import os
import sys
import time

START = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import argparse  # noqa: E402
import json  # noqa: E402

from bakekit import cli  # noqa: E402

import specs  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(specs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    cfg = specs.config(args.workload, args.seed, args.tiny)
    train_set, _ = cli.load_datasets(cfg)
    cli.make_model(cfg, train_set)
    setup_s = time.perf_counter() - START
    print(json.dumps({"setup_s": setup_s, "bakekit": cli.__file__}))


if __name__ == "__main__":
    main()
