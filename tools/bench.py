"""Run every BENCHMARK.json workload on seeds 1-5 and write one BENCH_<n>.json.

    python3 tools/bench.py BENCH_<n>.json

Each run is BENCHMARK.json's command with ``--workload W --seed s --seconds
<run_seconds> --trace 0``, in a fresh interpreter from the repository root,
one at a time, seed by seed. For each workload the file holds each end-to-end
metric's per-seed values with their median and interquartile range, the
attempted and failed operations of each run, and each run's ``env`` line
(BLAS threads, numpy version, cores). A run that exits non-zero stops here,
and no file is written.

The file's ``first_cell`` section gives the cost of a fresh process's first cell,
which ``examples_per_s`` cannot see because it keeps the fastest epoch. Each
of REPEATS fresh interpreters trains two cells of ``specs.config("bake_wide",
1)`` through ``cli.run_training``, and each cell's wall seconds, minor page
faults and system seconds come from ``getrusage`` deltas around it. Both cells
train the same config, so unless both end at the same finite top-1 this stops
here too.

The file's ``micro`` section is timed last, in this interpreter. Each case of
``cases()`` runs once for its check, which stops here too if it fails, and
once more to size its loops; then REPEATS loops of about LOOP_S seconds each,
timed with ``time.perf_counter``, give its seconds per call. ``overhead_share``
is BAKE's overhead as the paper states it: the median of an ``overhead`` case,
which builds one batch's soft targets and runs the KL node forward and
backward, over the median of the vanilla step at the same shape. The shapes are
desk (N=64, K=10), bake_wide's (N=256, K=100) and a CIFAR-100 encoder with the
conv stem (3x32x32, N=64, K=100), all with MLP 256,128 on models that compute
in float32, as every run does. The section also holds the ``env`` line.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3, 4, 5)
REPEATS = 5
LOOP_S = 0.2
# classes K, examples per class, input (an MLP's dim, or C, H, W through the conv stem), n_hat at M=1
SHAPES = {"desk": (10, 200, 32, 32), "bake_wide": (100, 500, 32, 128), "cifar_conv": (100, 2, (3, 32, 32), 32)}
DTYPE = "float32"  # what a model computes in; the case names and overhead_share keys carry it

sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]


def summary(values):
    """``values`` with their median and interquartile range."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": statistics.median(values), "iqr": q3 - q1}


def cases():
    """The micro cases as (name, call, check); ``check`` reads one ``call()``'s result.

    numpy and bakekit are imported here, after the workload runs: a child
    process reports its parent's peak RSS when that is the larger, so the
    runs start from an interpreter that has loaded neither.
    """
    import numpy as np

    from bakekit import bake, losses, sampling
    from bakekit import data as dt
    from bakekit import models as md
    from bakekit.numerics import Tensor
    from bakekit.trainer import TrainConfig, batch_loss, sgd_step

    def backward(loss, *args):
        value = loss(*args)
        value.backward()
        return value.item()

    def soft_terms(z, onehot, q):
        return losses.soft_cross_entropy(z, onehot) + losses.kl_distillation(z, q, 4.0)

    def step_loss(model, x, y, cfg):
        return batch_loss(model, x, y, cfg)[0]

    def overhead(features, logits, y, cfg):
        """BAKE's own work in a step: soft targets, then the KL node forward and backward into ``logits``."""
        targets = bake.build_soft_targets(features, logits, labels=y, cfg=cfg)
        kl = losses.kl_distillation(logits, targets, cfg.tau)
        kl.backward()
        return targets, kl.item()

    def sgd(model, velocity):
        sgd_step(model.flat, model.grad, velocity, 0.01, 0.9, 0.0)
        return model.flat

    def stochastic(a):
        return np.allclose(a.sum(axis=1), 1.0)

    table = []
    for n in (64, 256, 1024):
        features = np.random.default_rng(0).normal(size=(n, 128))
        table.append((f"affinity_matrix[{n}]", partial(bake.affinity_matrix, features),
                      lambda a: stochastic(a) and not a.diagonal().any()))
        rng = np.random.default_rng(1)
        a, p = bake.affinity_matrix(rng.normal(size=(n, 128))), rng.dirichlet(np.ones(100), size=n)
        table.append((f"propagate_closed_form[{n}]", partial(bake.propagate_closed_form, a, p, 0.5), stochastic))
    for size, (k, per_class, shape, n_hat) in SHAPES.items():
        n, rng = 2 * n_hat, np.random.default_rng(2)
        z = Tensor(rng.normal(size=(n, k)), requires_grad=True)
        onehot, q = np.eye(k)[rng.integers(0, k, size=n)], rng.dirichlet(np.ones(k), size=n)
        table.append((f"soft_cross_entropy[{n}-{k}]", partial(backward, soft_terms, z, onehot, q), np.isfinite))
        train_set, _ = dt.synth_clusters(k, per_class, int(np.prod(shape)), 3.0, seed=0)
        ids = sampling.epoch_batches(train_set.class_index, sampling.SamplerConfig(n_hat, 1, 0), 0)[0]
        stem = md.ConvStem(*shape) if isinstance(shape, tuple) else None
        descriptor = md.ModelDescriptor(train_set.input_dim, k, conv_stem=stem)
        model = md.init(descriptor, seed=0)
        x, y, cfg = train_set.inputs[ids], train_set.labels[ids], TrainConfig(method="vanilla")
        table.append((f"step[{size}-vanilla-{DTYPE}]", partial(backward, step_loss, model, x, y, cfg), np.isfinite))
        features, logits = model.forward(x)
        logits = Tensor(logits.data, requires_grad=True)  # a leaf: the KL's backward stops at the logits
        table.append((f"overhead[{size}-{DTYPE}]", partial(overhead, features, logits, y, cfg.bake),
                      lambda out: stochastic(out[0]) and np.isfinite(out[1])))
        model = md.init(descriptor, seed=0)
        model.grad[:] = np.random.default_rng(3).normal(size=model.grad.size) * 1e-3
        table.append((f"sgd_step[{size}-{DTYPE}]", partial(sgd, model, np.zeros_like(model.flat)),
                      lambda flat: np.isfinite(flat).all()))
    for examples in (2_000, 20_000, 60_000):
        index = dt.build_class_index(np.repeat(np.arange(100), examples // 100))  # CIFAR-100's shape
        for m in (0, 1):
            cfg = sampling.SamplerConfig(n_hat=256, m=m, seed=0)
            table.append((f"epoch_batches[{examples}-{m}]", partial(sampling.epoch_batches, index, cfg, 0),
                          lambda b, shape=(examples // 256, cfg.batch_size): np.shape(b) == shape))
    return table


def micro(table):
    """Time each (name, call, check) of ``table``; a failed check exits here."""
    from workload import environment

    timed = {}
    for name, call, check in table:
        if not check(call()):
            raise SystemExit(f"bench: micro check failed: {name}")
        start = time.perf_counter()
        call()  # a warm call sizes the loops; the checked one ran cold
        loops = max(1, round(LOOP_S / (time.perf_counter() - start)))
        values = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            for _ in range(loops):
                call()
            values.append((time.perf_counter() - start) / loops)
        timed[name] = summary(values)
    return {"unit": "s/call", "env": environment(), "cases": timed, "overhead_share": overhead_shares(timed)}


def overhead_shares(timed):
    """BAKE's overhead median over the vanilla step's, per shape."""
    median = {name: case["median"] for name, case in timed.items()}
    return {f"{size}-{DTYPE}": median[f"overhead[{size}-{DTYPE}]"] / median[f"step[{size}-vanilla-{DTYPE}]"]
            for size in SHAPES}


def cell_costs():
    """Train two bake_wide cells in this interpreter; print their costs and top-1 as one JSON line."""
    import specs
    from bakekit.cli import run_training

    cells = []
    for _ in range(2):
        before, start = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
        _, metrics, _ = run_training(specs.config("bake_wide", 1))
        wall, after = time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF)
        cells.append({"wall_s": wall, "minor_faults": after.ru_minflt - before.ru_minflt,
                      "system_s": after.ru_stime - before.ru_stime, "top1": metrics[-1].test_top1})
    print(json.dumps(cells))


def first_cell():
    """``cell_costs`` in REPEATS fresh interpreters; each cell's costs summarised; a top-1 mismatch exits here."""
    runs = []
    for _ in range(REPEATS):
        argv = [sys.executable, "-c", "import bench; bench.cell_costs()"]
        done = subprocess.run(argv, cwd=ROOT / "tools", stdout=subprocess.PIPE, text=True, check=True)
        cells = json.loads(done.stdout.splitlines()[-1])
        top1 = [cell["top1"] for cell in cells]
        if not (math.isfinite(top1[0]) and top1[0] == top1[1]):
            raise SystemExit(f"bench: first-cell check failed: the two cells end at top-1 {top1}")
        runs.append(cells)
    return {
        "config": ["bake_wide", 1],
        "top1": [cells[0]["top1"] for cells in runs],
        "cells": [{key: summary([cells[i][key] for cells in runs]) for key in ("wall_s", "minor_faults", "system_s")}
                  for i in range(2)],
    }


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
        metrics[name] = {"unit": first["unit"], **summary(values)}
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
    print("bench: first cell", file=sys.stderr, flush=True)
    first = first_cell()
    print("bench: micro", file=sys.stderr, flush=True)
    report = {
        "first_cell": first,
        "micro": micro(cases()),
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
