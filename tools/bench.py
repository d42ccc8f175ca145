"""Run every BENCHMARK.json workload on seeds 1-5 and write one BENCH_<n>.json,
or print the workloads' training fingerprint.

    python3 tools/bench.py BENCH_<n>.json
    python3 tools/bench.py BENCH_<n>.json --against DIR [--moves-bits]
    python3 tools/bench.py --fingerprint [--tiny]

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

``--fingerprint`` writes no file. It trains each workload at seeds 1-3 through
``cli.run_training(specs.config(workload, seed, tiny))``, all in one child
interpreter started with OPENBLAS_NUM_THREADS=1, and prints one JSON object:
per workload and seed, the SHA-256 of the per-epoch metrics (every
``EpochMetrics`` field but ``wall_seconds``, as float64 bytes) and of the final
``model.flat`` bytes. Two trees train byte-identically on one host when their
fingerprints are equal. ``--tiny`` trains the smoke-test sizes of ``specs.TINY``.

``--against DIR`` pairs this tree with DIR, a checkout of the parent such as
``git worktree add ../parent HEAD~1``; DIR needs ``BENCHMARK.json``,
``perfbench/`` and ``src/bakekit``, or this exits 2 before any run. Each
workload seed runs this tree's BENCHMARK.json command once in DIR and once
here, as fresh interpreters; the parent goes first at seeds 1, 3 and 5, the
change at seeds 2 and 4. Per workload the file holds both sides' summaries
(as above) and, per metric, the change's wins of n pairs by the metric's
``better`` (a tie counts for neither), the median of the per-pair differences
(change minus parent) and the parent's IQR. It then records both trees'
``--fingerprint`` output, each made by its own tree's code. A pair whose sides
end at another ``final_top1`` or another number of failed operations stops
here, and no file is written, unless ``--moves-bits`` declares that the change
moves training bits. The pair file has no ``first_cell`` or ``micro`` section:
timed in one tree only, they are the one-sided readings the pairs replace.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3, 4, 5)
FINGERPRINT_SEEDS = (1, 2, 3)
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

    def bake_terms(z, y, q):
        return losses.bake_loss(z, y, q, 4.0, 1.0)[0]

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
        labels, q = rng.integers(0, k, size=n), rng.dirichlet(np.ones(k), size=n)
        table.append((f"bake_loss[{n}-{k}]", partial(backward, bake_terms, z, labels, q), np.isfinite))
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
            for size in SHAPES if f"overhead[{size}-{DTYPE}]" in median}


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


def workload_names():
    return [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def train_fingerprints(tiny):
    """Train each workload at FINGERPRINT_SEEDS in this interpreter; {workload: {seed: {"metrics", "model"}}} hashes."""
    from dataclasses import asdict

    import numpy as np
    import specs
    from bakekit.cli import run_training

    runs = {}
    for name in workload_names():
        runs[name] = {}
        for seed in FINGERPRINT_SEEDS:
            with np.errstate(all="ignore"):  # vanilla_desk diverges (a known defect): its warnings are noise here
                model, metrics, _ = run_training(specs.config(name, seed, tiny))
            rows = [[v for key, v in asdict(m).items() if key != "wall_seconds"] for m in metrics]
            runs[name][str(seed)] = {
                "metrics": hashlib.sha256(np.array(rows, np.float64).tobytes()).hexdigest(),
                "model": hashlib.sha256(model.flat.tobytes()).hexdigest(),
            }
    print(json.dumps(runs))


def fingerprint(tiny, tree=ROOT):
    """``tree``'s ``train_fingerprints`` in a fresh interpreter with one BLAS thread, as one JSON object."""
    argv = [sys.executable, "-c", f"import bench; bench.train_fingerprints({bool(tiny)})"]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run(argv, cwd=tree / "tools", env=env, stdout=subprocess.PIPE, text=True, check=True)
    return {"tiny": bool(tiny), "seeds": list(FINGERPRINT_SEEDS), "runs": json.loads(done.stdout.splitlines()[-1])}


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


def run(spec, name, seed, tree=ROOT):
    """(env, result) of one untraced run of workload ``name`` at ``seed``: ``spec``'s command in ``tree``."""
    argv = [*spec["command"], "--workload", name, "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
            "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, text=True, check=True)
    return parse(done.stdout)


def main(out):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = workload_names()
    runs = {name: [] for name in workloads}
    for seed in SEEDS:
        for name in workloads:
            print(f"bench: {name} seed {seed}", file=sys.stderr, flush=True)
            runs[name].append(run(spec, name, seed))
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


def pair(parent, change, better):
    """One metric over paired runs: the change's wins of n (ties count for neither), the median of the
    per-pair differences (change minus parent) and the parent's IQR."""
    sign = 1 if better == "higher" else -1
    diffs = [c - p for p, c in zip(parent, change)]
    return {"wins": sum(sign * d > 0 for d in diffs), "n": len(diffs), "median_diff": statistics.median(diffs),
            "parent_iqr": summary(parent)["iqr"]}


def check_tree(tree):
    """Exit 2 unless ``tree`` holds a benchmark and bakekit's sources to run it on."""
    missing = [name for name in ("BENCHMARK.json", "perfbench", "src/bakekit") if not (tree / name).exists()]
    if missing:
        print(f"bench: --against {tree} is not a bakekit checkout: it has no {', '.join(missing)}", file=sys.stderr)
        sys.exit(2)


def check_pair(name, seed, parent, change):
    """Stop unless the two sides of one pair end at one final top-1 with as many failed operations."""
    top1 = [result["metrics"]["final_top1"]["value"] for result in (parent, change)]
    failed = [result["failed"] for result in (parent, change)]
    same_top1 = top1[0] == top1[1] or all(map(math.isnan, top1))
    if not same_top1 or failed[0] != failed[1]:
        raise SystemExit(f"bench: {name} seed {seed}: parent and change end at top-1 {top1} with failed {failed}; "
                         f"pass --moves-bits if the change moves training bits")


def main_against(out, parent, moves_bits):
    """Parent/change pairs of every workload seed, and both trees' fingerprints, written to ``out``."""
    check_tree(parent)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    workloads = workload_names()
    runs = {name: {"parent": [], "change": []} for name in workloads}
    first = []
    for i, seed in enumerate(SEEDS):
        sides = [("parent", parent), ("change", ROOT)][:: -1 if i % 2 else 1]
        first.append(sides[0][0])
        for name in workloads:
            for side, tree in sides:
                print(f"bench: {name} seed {seed} {side}", file=sys.stderr, flush=True)
                runs[name][side].append(run(spec, name, seed, tree))
            if not moves_bits:
                check_pair(name, seed, runs[name]["parent"][-1][1], runs[name]["change"][-1][1])
    print("bench: fingerprints", file=sys.stderr, flush=True)
    fingerprints = {"parent": fingerprint(False, parent), "change": fingerprint(False)}
    workload_pairs = {}
    for name in workloads:
        sides = {side: aggregate(SEEDS, runs[name][side]) for side in ("parent", "change")}
        pairs = {metric: pair(sides["parent"]["metrics"][metric]["values"], m["values"], better[metric])
                 for metric, m in sides["change"]["metrics"].items()}
        workload_pairs[name] = {**sides, "pairs": pairs}
    report = {
        "moves_bits": moves_bits,
        "first": first,
        "fingerprint": {**fingerprints, "equal": fingerprints["parent"] == fingerprints["change"]},
        "command": spec["command"],
        "run_seconds": spec["run_seconds"],
        "trace": 0,
        "workloads": workload_pairs,
    }
    Path(out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["--fingerprint"] and args[1:] in ([], ["--tiny"]):
        print(json.dumps(fingerprint(args[1:] == ["--tiny"]), indent=1, sort_keys=True))
    elif len(args) == 1 and not args[0].startswith("-"):
        main(args[0])
    elif (len(args) in (3, 4) and not args[0].startswith("-") and args[1] == "--against"
          and args[3:] in ([], ["--moves-bits"])):
        main_against(args[0], Path(args[2]).resolve(), args[3:] == ["--moves-bits"])
    else:
        sys.exit(__doc__)
