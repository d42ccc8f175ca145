"""Pair HEAD with a parent revision on every BENCHMARK.json workload and the micro cases, and write one
BENCH_<n>.json; or print the workloads' training fingerprint.

    python3 tools/bench.py BENCH_<n>.json --against REV [--moves-bits]
    python3 tools/bench.py --fingerprint [--tiny]

``export`` writes two trees with ``git archive``: REV as the parent into ``<tmp>/parent`` and HEAD as the change into
``<tmp>/change``, so both sides run from paths of one length in one kind of tree. The change is what HEAD holds:
commit before pairing. Both trees are removed once their runs end or one stops. An unknown REV, an export
without ``BENCHMARK.json``, ``perfbench/``, ``src/bakekit`` or ``tools/bench.py``, or an output path whose directory
does not exist exits 2 before any run. BENCHMARK.json is read from the change's tree. Each run is a fresh interpreter
that runs one tree's own code. ``paired`` makes every pair: at each index i below REPEATS it runs a section's run in
both trees, the parent first when i is even and the change when it is odd (the file's ``first``), so drift on the
host hits both sides. Both runs of pair i see ``padded_env(i)``: the environment with ``BENCH_PAD``, PADS[i] bytes
long, so each pair starts its processes at another stack layout. A run that exits non-zero stops here, and no file
is written. This interpreter imports neither numpy nor bakekit, so no run inherits a larger peak RSS.

The file's sections, in the order they run:
- ``fingerprint``: both trees' ``--fingerprint`` output and whether the two are equal; then ``env``, each tree's
  environment line (BLAS threads, numpy version, cores) from its own ``perfbench/workload.py``.
- ``workloads``: per workload, BENCHMARK.json's command with ``--workload W --seed <i + 1> --seconds <run_seconds>
  --trace 0``. A run's record: each end-to-end metric, ``attempted`` and ``failed``.
- ``micro``: ``micro(cases())``. Its record: each case's seconds per call, the median of MICRO_LOOPS loops of about
  LOOP_S seconds timed with ``time.perf_counter``, after one call for its check (which stops here too if it fails)
  and one to size its loops. ``overhead_share`` is BAKE's overhead as the paper states it: the median of an
  ``overhead`` case (one batch's soft targets, then the KL's value and gradient array) over that of the vanilla step
  (``batch_loss``, then ``Model.backward``), at each shape of SHAPES, with MLP 256,128 computing in float32 as every
  run does. The cases of a step (ONE_THREAD) run on one OpenBLAS thread, as ``trainer.train`` steps.

A section holds each side's ``summary()`` of each name in its records and, under ``pairs``, ``pair()`` of each name
both sides hold: the change's wins of n pairs by ``better`` (lower unless BENCHMARK.json says higher; a tie counts
for neither), the change's median minus the parent's, the parent's IQR and the verdict, judged as a change is
accepted: ``better`` at CLAIM_WINS or more wins of REPEATS and a difference of medians beyond the parent's IQR;
``worse`` when an end-to-end metric's median is worse than the parent's by more than its BENCHMARK.json bound, taken
as a fraction of the parent's median; else ``none``. A name with no bound, such as a micro case, reads ``better`` or
``none``. A pair whose sides end at another ``final_top1`` or ``failed`` stops here, unless ``--moves-bits``
declares that the change moves training bits.

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
import random
import statistics
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FINGERPRINT_SEEDS = (1, 2, 3)
REPEATS = 10  # pairs per section
MICRO_LOOPS = 5  # timed loops per micro case in one interpreter
CLAIM_WINS = 9  # of REPEATS pairs: the fewest wins (or losses) a verdict of better (or worse) needs
LOOP_S = 0.2
# desk, bake_wide's and a CIFAR-100 encoder with the conv stem: classes K, examples per class,
# input (an MLP's dim, or C, H, W through the conv stem), n_hat at M=1
SHAPES = {"desk": (10, 200, 32, 32), "bake_wide": (100, 500, 32, 128), "cifar_conv": (100, 2, (3, 32, 32), 32)}
DTYPE = "float32"  # what a model computes in; the case names and overhead_share keys carry it
ONE_THREAD = ("bake_loss[", "step[", "overhead[", "sgd_step[")  # the micro cases of a training step
# each pair's environment pad in bytes, by pair index: whole 16-byte steps over one 4 KiB page, no two alike
PADS = random.Random(0).sample(range(0, 4096, 16), 256)

sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]


def summary(values):
    """``values`` with their median and interquartile range."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": statistics.median(values), "iqr": q3 - q1}


def cases():
    """The micro cases as (name, call, check); ``check`` reads one ``call()``'s result.

    The table is built on one OpenBLAS thread, and ``overhead`` builds its soft targets at the count found on entry,
    as ``trainer.train`` does."""
    import numpy as np

    from bakekit import bake, losses, sampling
    from bakekit import data as dt
    from bakekit import models as md
    from bakekit.numerics import blas_threads
    from bakekit.trainer import TrainConfig, batch_loss, sgd_step

    def step(model, x, y, cfg):
        """One training step's forward, loss arrays and ``Model.backward``, as ``train`` runs them."""
        value, grad, _, _ = batch_loss(model, x, y, cfg)
        model.backward(grad)
        return value

    def overhead(features, logits, y, cfg, threads):
        """BAKE's own work in a step: soft targets on ``threads`` threads, then the KL's value and gradient array."""
        with blas_threads(threads):
            targets = bake.build_soft_targets(features, logits, labels=y, cfg=cfg)
        return targets, losses.kl_distillation(logits, targets, cfg.tau)[0]

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
    with blas_threads(1) as found:
        for size, (k, per_class, shape, n_hat) in SHAPES.items():
            n, rng = 2 * n_hat, np.random.default_rng(2)
            z = rng.normal(size=(n, k)).astype(DTYPE)
            labels, q = rng.integers(0, k, size=n), rng.dirichlet(np.ones(k), size=n)
            table.append((f"bake_loss[{n}-{k}]", partial(losses.bake_loss, z, labels, q, 4.0, 1.0),
                          lambda out: np.isfinite(out[0]) and np.isfinite(out[1]).all()))
            train_set, _ = dt.synth_clusters(k, per_class, int(np.prod(shape)), 3.0, seed=0)
            ids = sampling.epoch_batches(train_set.class_index, sampling.SamplerConfig(n_hat, 1, 0), 0)[0]
            stem = md.ConvStem(*shape) if isinstance(shape, tuple) else None
            descriptor = md.ModelDescriptor(train_set.input_dim, k, conv_stem=stem)
            model = md.init(descriptor, seed=0)
            x, y, cfg = train_set.inputs[ids], train_set.labels[ids], TrainConfig(method="vanilla")
            table.append((f"step[{size}-vanilla-{DTYPE}]", partial(step, model, x, y, cfg), np.isfinite))
            features, logits = model.forward(x)
            table.append((f"overhead[{size}-{DTYPE}]", partial(overhead, features, logits, y, cfg.bake, found),
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
    """Time each (name, call, check) of ``table``: {name: summary}; a failed check exits here. A case whose name
    starts with one of ONE_THREAD is checked and timed on one OpenBLAS thread, as ``trainer.train`` steps."""
    from bakekit.numerics import blas_threads

    timed = {}
    for name, call, check in table:
        with blas_threads(1 if name.startswith(ONE_THREAD) else None):
            if not check(call()):
                raise SystemExit(f"bench: micro check failed: {name}")
            start = time.perf_counter()
            call()  # a warm call sizes the loops; the checked one ran cold
            loops = max(1, round(LOOP_S / (time.perf_counter() - start)))
            values = []
            for _ in range(MICRO_LOOPS):
                start = time.perf_counter()
                for _ in range(loops):
                    call()
                values.append((time.perf_counter() - start) / loops)
        timed[name] = summary(values)
    return timed


def overhead_shares(timed):
    """BAKE's overhead median over the vanilla step's, per shape."""
    median = {name: case["median"] for name, case in timed.items()}
    return {f"{size}-{DTYPE}": median[f"overhead[{size}-{DTYPE}]"] / median[f"step[{size}-vanilla-{DTYPE}]"]
            for size in SHAPES if f"overhead[{size}-{DTYPE}]" in median}


def workload_names(tree=ROOT):
    return [w["name"] for w in json.loads((tree / "BENCHMARK.json").read_text())["workloads"]]


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


def sides(i, trees):
    """``trees``' (side, tree) items in their run order at index ``i``: the parent first when ``i`` is even."""
    order = list(trees.items())
    return order[::-1] if i % 2 else order


def fingerprint(tiny, tree=ROOT):
    """``tree``'s ``train_fingerprints`` in a fresh interpreter with one BLAS thread, as one JSON object."""
    runs = harness(tree, f"bench.train_fingerprints({bool(tiny)})", {**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    return {"tiny": bool(tiny), "seeds": list(FINGERPRINT_SEEDS), "runs": runs}


def pair(parent, change, better, bound=None):
    """One name over paired runs: the change's wins of n (ties count for neither), the change's median minus the
    parent's, the parent's IQR and the verdict. The verdict is ``better`` at CLAIM_WINS or more wins and a difference
    of medians beyond the parent's IQR in the direction of ``better``; ``worse`` when the change's median is worse
    than the parent's by more than ``bound``, a fraction of the parent's median; and ``none`` otherwise."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    base = summary(parent)
    diff = statistics.median(change) - base["median"]
    verdict = ("better" if wins >= CLAIM_WINS and sign * diff > base["iqr"] else
               "worse" if bound is not None and -sign * diff > bound * abs(base["median"]) else "none")
    return {"wins": wins, "n": len(parent), "median_diff": diff, "parent_iqr": base["iqr"], "verdict": verdict}


def check_tree(tree, rev):
    """Exit 2 unless ``tree``, the export of ``rev``, holds a benchmark, its harness and bakekit's sources."""
    needed = ("BENCHMARK.json", "perfbench", "src/bakekit", "tools/bench.py")
    if missing := [name for name in needed if not (tree / name).exists()]:
        print(f"bench: {rev} is not a bakekit checkout: it has no {', '.join(missing)}", file=sys.stderr)
        sys.exit(2)


def export(rev, tmp):
    """ROOT's ``rev`` exported as the parent into ``tmp/parent`` and HEAD as the change into ``tmp/change``, with
    ``git archive`` and ``tar``: {side: tree}. An unknown ``rev``, or an export that ``check_tree`` refuses, exits 2."""
    trees = {side: tmp / side for side in ("parent", "change")}
    for (side, tree), commit in zip(trees.items(), (rev, "HEAD")):
        done = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit], stdout=subprocess.PIPE)
        if done.returncode:
            print(f"bench: git archive {commit} exited {done.returncode}", file=sys.stderr)
            sys.exit(2)
        tree.mkdir()
        subprocess.run(["tar", "-x", "-C", str(tree)], input=done.stdout, check=True)
        check_tree(tree, commit)
    return trees


def check_pair(what, parent, change, names):
    """Stop unless the parent's and the change's records of one pair agree on each of ``names`` (NaN agrees with
    NaN)."""
    for name in names:
        values = [parent[name], change[name]]
        if values[0] != values[1] and not all(map(math.isnan, values)):
            raise SystemExit(f"bench: {what}: parent and change end at {name} {values}; "
                             f"pass --moves-bits if the change moves training bits")


def paired(trees, what, run, same=()):
    """``run(tree, i)``, one run's record of named numbers, in both ``trees`` at each i below REPEATS, in
    ``sides(i, trees)`` order: {side: [record, ...]}. A pair whose records differ in a name of ``same`` stops."""
    runs = {"parent": [], "change": []}
    for i in range(REPEATS):
        for side, tree in sides(i, trees):
            print(f"bench: {what} {i + 1} {side}", file=sys.stderr, flush=True)
            runs[side].append(run(tree, i))
        check_pair(f"{what} {i + 1}", runs["parent"][-1], runs["change"][-1], same)
    return runs


def section(runs, metrics):
    """Each side's ``summary()`` of each name in its records, and ``pair()`` of each name both sides hold, by its
    entry in ``metrics`` (BENCHMARK.json's end-to-end metrics by name); any other name is lower-is-better with no
    bound."""
    report = {side: {name: summary([record[name] for record in records]) for name in records[0]}
              for side, records in runs.items()}
    report["pairs"] = {}
    for name, values in report["change"].items():
        if name in report["parent"]:
            metric = metrics.get(name, {})
            report["pairs"][name] = pair(report["parent"][name]["values"], values["values"],
                                         metric.get("better", "lower"), metric.get("bound"))
    return report


def padded_env(i):
    """This process's environment with ``BENCH_PAD``, PADS[i] bytes long: the runs of pair i, on both sides, start
    with one layout of their environment and stack, and other pairs with others."""
    return {**os.environ, "BENCH_PAD": "x" * PADS[i % len(PADS)]}


def workload_run(spec, name, tree, i):
    """The record of ``spec``'s command on workload ``name`` at seed i + 1 in ``tree``, in ``padded_env(i)``: its
    end-to-end metrics, and its attempted and failed operations."""
    argv = [*spec["command"], "--workload", name, "--seed", str(i + 1), "--seconds", str(spec["run_seconds"]),
            "--trace", "0"]
    result = json.loads(child(argv, tree, padded_env(i)).splitlines()[-1])
    return {**{key: metric["value"] for key, metric in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"]}


def micro_run(tree, i):
    """Pair i's micro interpreter's record, run in ``padded_env(i)``: each case's median seconds per call."""
    timed = harness(tree, "print(json.dumps(bench.micro(bench.cases())))", padded_env(i))
    return {name: case["median"] for name, case in timed.items()}


def report(trees, moves_bits):
    """Both ``trees``' fingerprints and environments, then their paired workloads and micro cases, by the change's
    BENCHMARK.json: the file's object."""
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    metrics = {metric["name"]: metric for metric in spec["end_to_end"]}

    def both(what, run, same=()):
        """The section of ``run``'s pairs; one whose sides differ in a name of ``same`` stops, unless bits move."""
        return section(paired(trees, what, run, () if moves_bits else same), metrics)

    print("bench: fingerprints", file=sys.stderr, flush=True)
    fingerprints = {side: fingerprint(False, tree) for side, tree in sides(0, trees)}
    env = "from workload import environment; print(json.dumps(environment()))"
    result = {
        "moves_bits": moves_bits,
        "first": [sides(i, trees)[0][0] for i in range(REPEATS)],
        "fingerprint": {**fingerprints, "equal": fingerprints["parent"] == fingerprints["change"]},
        "env": {side: harness(tree, env) for side, tree in sides(0, trees)},
        "command": spec["command"],
        "run_seconds": spec["run_seconds"],
        "trace": 0,
        "workloads": {name: both(f"{name} seed", partial(workload_run, spec, name), ("final_top1", "failed"))
                      for name in workload_names(trees["change"])},
        "micro": {"unit": "s/call", **both("micro", micro_run)},
    }
    for side in ("parent", "change"):
        result["micro"][side]["overhead_share"] = overhead_shares(result["micro"][side])
    return result


def main(out, rev, moves_bits):
    """``report()`` of ``export(rev, ...)``'s trees, written to ``out``; the trees are removed on return or exit."""
    if not Path(out).parent.is_dir():
        print(f"bench: cannot write {out}: {Path(out).parent} is not a directory", file=sys.stderr)
        sys.exit(2)
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        result = report(export(rev, Path(tmp)), moves_bits)
    Path(out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["--fingerprint"] and args[1:] in ([], ["--tiny"]):
        print(json.dumps(fingerprint(args[1:] == ["--tiny"]), indent=1, sort_keys=True))
    elif (len(args) in (3, 4) and not args[0].startswith("-") and args[1] == "--against"
          and not args[2].startswith("-") and args[3:] in ([], ["--moves-bits"])):
        main(args[0], args[2], args[3:] == ["--moves-bits"])
    else:
        sys.exit(__doc__)
