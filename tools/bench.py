"""Pair this tree with its parent on every BENCHMARK.json workload, the first cell and the micro cases, and
write one BENCH_<n>.json; or print the workloads' training fingerprint.

    python3 tools/bench.py BENCH_<n>.json --against DIR [--moves-bits]
    python3 tools/bench.py --fingerprint [--tiny]

DIR is a checkout of the parent, such as ``git worktree add ../parent HEAD~1``; one without ``BENCHMARK.json``,
``perfbench/``, ``src/bakekit`` or ``tools/bench.py`` exits 2 before any run. Each run is a fresh interpreter that
runs one tree's own code. At index i, a seed's or a repeat's, the parent runs first when i is even and the change
when it is odd (the file's ``first``), so drift on the host hits both sides. A run that exits non-zero stops here,
and no file is written. This interpreter imports neither numpy nor bakekit, so no run inherits a larger peak RSS.

The file's sections, in the order they run:
- ``fingerprint``: both trees' ``--fingerprint`` output and whether the two are equal.
- ``workloads``: at each of SEEDS, BENCHMARK.json's command with ``--workload W --seed s --seconds <run_seconds>
  --trace 0``. A side's summary holds each end-to-end metric's values with their median and IQR, and each run's
  attempted and failed operations and ``env`` line (BLAS threads, numpy version, cores).
- ``first_cell``: ``cell_costs`` REPEATS times: two cells of ``specs.config("bake_wide", 1)`` through
  ``cli.run_training``, with each cell's wall seconds, minor page faults and system seconds from ``getrusage``
  deltas around it. This is what a fresh process's first cell costs, which ``examples_per_s`` cannot see.
- ``micro``: ``micro(cases())`` REPEATS times. Each case runs once for its check, which stops here too if it
  fails, and once to size its loops; the median of REPEATS loops of about LOOP_S seconds, timed with
  ``time.perf_counter``, is its seconds per call. ``overhead_share`` is BAKE's overhead as the paper states it:
  the median of an ``overhead`` case (one batch's soft targets, then the KL node forward and backward) over that
  of the vanilla step, at each shape of SHAPES, with MLP 256,128 computing in float32 as every run does.

Each section holds both sides and, per metric, cost or case that both trees give, ``pair()``: the change's wins of
n pairs by ``better`` (lower for costs and cases; a tie counts for neither), the median of the per-pair
differences (change minus parent) and the parent's IQR. Unless the two cells of one interpreter end at one finite
top-1, this stops here. So does a pair whose sides end at another top-1, or at another number of failed
operations, unless ``--moves-bits`` declares that the change moves training bits.

``--fingerprint`` writes no file. In one child interpreter with OPENBLAS_NUM_THREADS=1 it trains each workload at
seeds 1-3 through ``cli.run_training(specs.config(workload, seed, tiny))`` and prints, per workload and seed, the
SHA-256 of the per-epoch metrics (every ``EpochMetrics`` field but ``wall_seconds``, as float64 bytes) and of the
final ``model.flat`` bytes. Two trees train byte-identically on one host when these are equal. ``--tiny`` trains
the smoke-test sizes of ``specs.TINY``.
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
# desk, bake_wide's and a CIFAR-100 encoder with the conv stem: classes K, examples per class,
# input (an MLP's dim, or C, H, W through the conv stem), n_hat at M=1
SHAPES = {"desk": (10, 200, 32, 32), "bake_wide": (100, 500, 32, 128), "cifar_conv": (100, 2, (3, 32, 32), 32)}
DTYPE = "float32"  # what a model computes in; the case names and overhead_share keys carry it
COSTS = ("wall_s", "minor_faults", "system_s")  # what cell_costs measures of each cell

sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]


def summary(values):
    """``values`` with their median and interquartile range."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": statistics.median(values), "iqr": q3 - q1}


def cases():
    """The micro cases as (name, call, check); ``check`` reads one ``call()``'s result."""
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


def child(argv, cwd, env=None):
    """The standard output of ``argv`` run in ``cwd`` as a fresh process; a non-zero exit stops here."""
    done = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, text=True)
    if done.returncode:
        raise SystemExit(f"bench: {' '.join(map(str, argv))} in {cwd} exited {done.returncode}")
    return done.stdout


def harness(tree, code, env=None):
    """The last line ``code`` prints, as JSON, run with ``tree``'s own tools/bench.py in a fresh interpreter."""
    stdout = child([sys.executable, "-c", f"import bench, json; {code}"], tree / "tools", env)
    return json.loads(stdout.splitlines()[-1])


def sides(i, parent):
    """The (side, tree) pairs in their run order at index ``i``: the parent first when ``i`` is even."""
    order = [("parent", parent), ("change", ROOT)]
    return order[::-1] if i % 2 else order


def fingerprint(tiny, tree=ROOT):
    """``tree``'s ``train_fingerprints`` in a fresh interpreter with one BLAS thread, as one JSON object."""
    runs = harness(tree, f"bench.train_fingerprints({bool(tiny)})", {**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    return {"tiny": bool(tiny), "seeds": list(FINGERPRINT_SEEDS), "runs": runs}


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


def pair(parent, change, better):
    """One metric over paired runs: the change's wins of n (ties count for neither), the median of the
    per-pair differences (change minus parent) and the parent's IQR."""
    sign = 1 if better == "higher" else -1
    diffs = [c - p for p, c in zip(parent, change)]
    return {"wins": sum(sign * d > 0 for d in diffs), "n": len(diffs), "median_diff": statistics.median(diffs),
            "parent_iqr": summary(parent)["iqr"]}


def pairs(parent, change, better=None):
    """``pair`` of each summary both sides hold under one name; lower is better unless ``better`` says otherwise."""
    return {name: pair(parent[name]["values"], values["values"], (better or {}).get(name, "lower"))
            for name, values in change.items() if name in parent}


def check_tree(tree):
    """Exit 2 unless ``tree`` holds a benchmark, its harness and bakekit's sources to run them on."""
    needed = ("BENCHMARK.json", "perfbench", "src/bakekit", "tools/bench.py")
    if missing := [name for name in needed if not (tree / name).exists()]:
        print(f"bench: --against {tree} is not a bakekit checkout: it has no {', '.join(missing)}", file=sys.stderr)
        sys.exit(2)


def check_pair(what, top1, failed=()):
    """Stop unless the two sides of one pair end at one final top-1 (with as many failed operations, if given)."""
    same_top1 = top1[0] == top1[1] or all(map(math.isnan, top1))
    if not same_top1 or len(set(failed)) > 1:
        counts = f" with failed {failed}" if failed else ""
        raise SystemExit(f"bench: {what}: parent and change end at top-1 {top1}{counts}; "
                         f"pass --moves-bits if the change moves training bits")


def workload_pairs(spec, parent, moves_bits):
    """Each workload's paired runs at every seed: both sides' summaries and each metric's ``pair``."""
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    names = workload_names()
    runs = {name: {"parent": [], "change": []} for name in names}
    for i, seed in enumerate(SEEDS):
        for name in names:
            argv = [*spec["command"], "--workload", name, "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                    "--trace", "0"]
            for side, tree in sides(i, parent):
                print(f"bench: {name} seed {seed} {side}", file=sys.stderr, flush=True)
                runs[name][side].append(parse(child(argv, tree)))
            if not moves_bits:
                results = [runs[name][side][-1][1] for side in ("parent", "change")]
                check_pair(f"{name} seed {seed}", [r["metrics"]["final_top1"]["value"] for r in results],
                           [r["failed"] for r in results])
    report = {}
    for name in names:
        summaries = {side: aggregate(SEEDS, side_runs) for side, side_runs in runs[name].items()}
        report[name] = {**summaries, "pairs": pairs(summaries["parent"]["metrics"], summaries["change"]["metrics"],
                                                    better)}
    return report


def repeats(parent, what, code):
    """``harness(tree, code)`` REPEATS times in each tree, the sides alternating: {side: [result, ...]}."""
    runs = {"parent": [], "change": []}
    for i in range(REPEATS):
        for side, tree in sides(i, parent):
            print(f"bench: {what} {i + 1} {side}", file=sys.stderr, flush=True)
            runs[side].append(harness(tree, code))
    return runs


def first_cell_pairs(parent, moves_bits):
    """``cell_costs`` paired: each side's top-1 and cell costs, and each cost's ``pair``; a top-1 mismatch exits."""
    runs = repeats(parent, "first cell", "bench.cell_costs()")
    for side, side_runs in runs.items():
        for top1 in ([cell["top1"] for cell in cells] for cells in side_runs):
            if not (math.isfinite(top1[0]) and top1[0] == top1[1]):
                raise SystemExit(f"bench: first-cell check failed: the {side}'s two cells end at top-1 {top1}")
    report = {side: {"top1": [cells[0]["top1"] for cells in side_runs],
                     "cells": [{key: summary([cells[i][key] for cells in side_runs]) for key in COSTS} for i in (0, 1)]}
              for side, side_runs in runs.items()}
    if not moves_bits:
        for top1 in zip(report["parent"]["top1"], report["change"]["top1"]):
            check_pair("first cell", list(top1))
    cell_pairs = [pairs(*cells) for cells in zip(report["parent"]["cells"], report["change"]["cells"])]
    return {"config": ["bake_wide", 1], **report, "pairs": cell_pairs}


def micro_pairs(parent):
    """``micro(cases())`` paired: each side's case summaries and ``overhead_share``, and each case's ``pair``."""
    runs = repeats(parent, "micro", "print(json.dumps(bench.micro(bench.cases())))")
    report = {}
    for side, side_runs in runs.items():
        cases = {name: summary([run["cases"][name]["median"] for run in side_runs]) for name in side_runs[0]["cases"]}
        report[side] = {"env": [run["env"] for run in side_runs], "cases": cases,
                        "overhead_share": overhead_shares(cases)}
    return {"unit": "s/call", **report, "pairs": pairs(report["parent"]["cases"], report["change"]["cases"])}


def main(out, parent, moves_bits):
    """Both trees' fingerprints, then the paired workloads, first cell and micro cases, written to ``out``."""
    check_tree(parent)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("bench: fingerprints", file=sys.stderr, flush=True)
    fingerprints = {side: fingerprint(False, tree) for side, tree in sides(0, parent)}
    report = {
        "moves_bits": moves_bits,
        "first": [sides(i, parent)[0][0] for i in range(len(SEEDS))],
        "fingerprint": {**fingerprints, "equal": fingerprints["parent"] == fingerprints["change"]},
        "command": spec["command"],
        "run_seconds": spec["run_seconds"],
        "trace": 0,
        "workloads": workload_pairs(spec, parent, moves_bits),
        "first_cell": first_cell_pairs(parent, moves_bits),
        "micro": micro_pairs(parent),
    }
    Path(out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["--fingerprint"] and args[1:] in ([], ["--tiny"]):
        print(json.dumps(fingerprint(args[1:] == ["--tiny"]), indent=1, sort_keys=True))
    elif (len(args) in (3, 4) and not args[0].startswith("-") and args[1] == "--against"
          and args[3:] in ([], ["--moves-bits"])):
        main(args[0], Path(args[2]).resolve(), args[3:] == ["--moves-bits"])
    else:
        sys.exit(__doc__)
